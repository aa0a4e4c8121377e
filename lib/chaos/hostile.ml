(* Hostile-input chaos harnesses: feed the stack deliberately corrupt
   bytes — on the wire, in the write-ahead log, in a replica's memory —
   and check that the corresponding defense (quarantine, salvage,
   divergence self-healing) contains the damage. Each harness also runs
   inverted (defense disabled) as a self-check: the run MUST then be
   flagged, proving the checks actually bite.

   These scenarios do not fit the Runner/Injector pipeline (two of them
   leave the simulator entirely — real sockets, real files), so they
   carry their own minimal report type. *)

module Loop = Svs_rt.Loop
module Tcp_mesh = Svs_rt.Tcp_mesh
module Wal = Svs_rt.Wal
module Engine = Svs_sim.Engine
module Latency = Svs_net.Latency
module Group = Svs_core.Group
module View = Svs_core.View
module Store = Svs_replication.Replicated_store
module Codec = Svs_codec.Codec
module Trace = Svs_telemetry.Trace

type check = { name : string; ok : bool; detail : string }

type report = { scenario : string; checks : check list }

let ok r = List.for_all (fun c -> c.ok) r.checks

let names = [ "frame-corruption"; "wal-corruption"; "state-divergence" ]

let pp_report ppf r =
  Format.fprintf ppf "@[<v>hostile scenario %-16s %s" r.scenario
    (if ok r then "ok" else "FLAGGED");
  List.iter
    (fun c ->
      Format.fprintf ppf "@,  [%s] %s%s"
        (if c.ok then " ok " else "FAIL")
        c.name
        (if c.detail = "" then "" else ": " ^ c.detail))
    r.checks;
  Format.fprintf ppf "@]"

let has_event tracer pred =
  List.exists (fun r -> pred r.Trace.event) (Trace.records tracer)

(* ------------------------------------------------------------------ *)
(* frame-corruption: a hostile process completes the mesh handshake as
   peer 2, then streams garbage batches at node 0 while honest node 1
   keeps talking. Expected: node 0 escalates drop -> reset -> quarantine
   on peer 2 and honest traffic keeps flowing. Inverted
   ([quarantine:false], threshold unreachable): the garbage is dropped
   but the peer is never quarantined, and the harness flags it. *)

let frame s =
  let n = String.length s in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string s 0 b 4 n;
  Bytes.to_string b

(* A count over real sockets varies from run to run; a detail that
   names the bound it was checked against does not. *)
let at_least name v lo = Printf.sprintf "%s%s%d" name (if v >= lo then ">=" else "<") lo

let run_frame_corruption ?(quarantine = true) () =
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  let fd1, addr1 = Tcp_mesh.listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  (* Peer 2 is the attacker: grab a real (but closed) address so the
     honest meshes' dials towards it fail fast and back off. *)
  let fd2, addr2 = Tcp_mesh.listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  Unix.close fd2;
  let peers = [ (0, addr0); (1, addr1); (2, addr2) ] in
  let hostile =
    {
      Tcp_mesh.reset_score = 2.0;
      quarantine_score = (if quarantine then 4.0 else infinity);
      forgive_after = 60.0;
      decay = 0.0;
    }
  in
  let tracer = Trace.memory () in
  let honest_at_0 = ref 0 and honest_at_1 = ref 0 in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers
      ~on_frame:(fun ~src _ -> if src = 1 then incr honest_at_0)
      ~tracer ~hostile ()
  in
  let mesh1 =
    Tcp_mesh.create loop ~me:1 ~listen_fd:fd1 ~peers
      ~on_frame:(fun ~src _ -> if src = 0 then incr honest_at_1)
      ~hostile ()
  in
  (* Honest chatter both ways. *)
  ignore
    (Loop.every loop ~period:0.005 (fun () ->
         Tcp_mesh.send mesh0 ~dst:1 "ping";
         Tcp_mesh.send mesh1 ~dst:0 "pong";
         true));
  (* The attacker: a raw TCP client that says hello as peer 2, then
     writes batches that cannot parse (overlong varint inner length).
     Every torn connection is re-dialed, like a determined adversary. *)
  let garbage = frame "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff" in
  let hello = frame "2" in
  let sock = ref None in
  let drop_sock () =
    (match !sock with
    | Some s -> ( try Unix.close s with Unix.Unix_error _ -> ())
    | None -> ());
    sock := None
  in
  let attack () =
    (match !sock with
    | None -> (
        try
          let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt s Unix.TCP_NODELAY true;
          Unix.connect s addr0;
          ignore (Unix.write_substring s hello 0 (String.length hello));
          Unix.set_nonblock s;
          sock := Some s
        with Unix.Unix_error _ -> ())
    | Some s -> (
        (* A zero-byte read means node 0 tore the link down. *)
        (match Unix.recv s (Bytes.create 1) 0 1 [] with
        | 0 -> drop_sock ()
        | _ -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error _ -> drop_sock ());
        match !sock with
        | None -> ()
        | Some s -> (
            try ignore (Unix.write_substring s garbage 0 (String.length garbage))
            with Unix.Unix_error _ -> drop_sock ())));
    true
  in
  ignore (Loop.every loop ~period:0.004 attack);
  let t0 = Unix.gettimeofday () in
  let done_ () =
    Unix.gettimeofday () -. t0 > 2.0
    || (Tcp_mesh.quarantined_total mesh0 >= 1 && !honest_at_0 >= 5 && !honest_at_1 >= 5)
  in
  Loop.run ~until:done_ ~timeout:3.0 loop;
  let quarantined_now = Tcp_mesh.quarantined mesh0 ~peer:2 in
  let quarantine_count = Tcp_mesh.quarantined_total mesh0 in
  let dropped = Tcp_mesh.frames_dropped mesh0 in
  drop_sock ();
  Tcp_mesh.close mesh0;
  Tcp_mesh.close mesh1;
  {
    scenario = "frame-corruption";
    checks =
      [
        {
          name = "hostile peer quarantined";
          ok = quarantine_count >= 1 && quarantined_now;
          detail =
            Printf.sprintf "%s quarantined(2)=%b"
              (at_least "tcp_peer_quarantined_total" quarantine_count 1)
              quarantined_now;
        };
        {
          name = "quarantine traced";
          ok =
            has_event tracer (function
              | Trace.Quarantine { node = 0; peer = 2; _ } -> true
              | _ -> false);
          detail = "";
        };
        {
          name = "garbage dropped, not delivered";
          ok = dropped >= 1;
          detail = at_least "frames_dropped" dropped 1;
        };
        {
          name = "honest traffic kept flowing";
          ok = !honest_at_0 >= 5 && !honest_at_1 >= 5;
          detail =
            at_least "node0 received " !honest_at_0 5
            ^ ", " ^ at_least "node1 received " !honest_at_1 5;
        };
      ];
  }

(* ------------------------------------------------------------------ *)
(* wal-corruption: build a healthy log (view, two floors, a lease),
   flip one byte in an interior record, and recover. Expected: salvage
   skips exactly the damaged record, quarantines its bytes to a
   .corrupt sidecar, keeps everything after it, reports tainted, and
   rewrites the log so the next recovery is clean. Inverted
   ([salvage:false], legacy truncate-at-first-bad-frame): everything
   after the flipped byte is lost and the harness flags it. *)

let temp_dir prefix =
  let f = Filename.temp_file prefix "" in
  Unix.unlink f;
  Unix.mkdir f 0o700;
  f

let rm_rf dir =
  Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let segment_files dir =
  List.filter
    (fun f -> not (Filename.check_suffix f ".corrupt"))
    (Array.to_list (Sys.readdir dir))

let sidecar_files dir =
  List.filter (fun f -> Filename.check_suffix f ".corrupt") (Array.to_list (Sys.readdir dir))

(* Flip one payload byte of the [n]th frame (0-based) of the segment. *)
let corrupt_frame path ~index =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  let off = ref 0 and i = ref 0 in
  while !i < index do
    let flen = Int32.to_int (Bytes.get_int32_be b !off) in
    off := !off + 8 + flen;
    incr i
  done;
  let target = !off + 8 in
  Bytes.set b target (Char.chr (Char.code (Bytes.get b target) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let run_wal_corruption ?(salvage = true) () =
  let dir = temp_dir "svs-hostile-wal" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w, _ = Wal.open_exn ~dir ~me:7 () in
      Wal.append w (Wal.Install (View.make ~id:4 ~members:[ 0; 7 ]));
      Wal.append w (Wal.Floor { sender = 0; sn = 5 });
      Wal.append w (Wal.Floor { sender = 7; sn = 9 });
      Wal.append_durable w (Wal.Lease { next_sn = 50 });
      Wal.close w;
      (* Frame 0 is the identity stamp, frame 1 the Install; frame 2 is
         the first Floor — interior damage with live records after it. *)
      (match segment_files dir with
      | [ seg ] -> corrupt_frame (Filename.concat dir seg) ~index:2
      | files ->
          invalid_arg
            (Printf.sprintf "expected one segment, found %d" (List.length files)));
      let w, r = Wal.open_exn ~dir ~me:7 ~salvage () in
      Wal.close w;
      let view_ok = match r.Wal.view with Some v -> v.View.id = 4 | None -> false in
      let floors_ok =
        List.mem_assoc 7 r.Wal.floors
        && List.assoc 7 r.Wal.floors = 9
        && not (List.mem_assoc 0 r.Wal.floors)
      in
      let sidecars = sidecar_files dir in
      (* Recover once more: the rewrite must leave a log that replays
         clean (damage quarantined, not carried forward). *)
      let w2, r2 = Wal.open_exn ~dir ~me:7 ~salvage () in
      Wal.close w2;
      {
        scenario = "wal-corruption";
        checks =
          [
            {
              name = "view survives the damage";
              ok = view_ok;
              detail =
                (match r.Wal.view with
                | Some v -> Printf.sprintf "view id %d" v.View.id
                | None -> "no view recovered");
            };
            {
              name = "records beyond the damage salvaged";
              ok = floors_ok && r.Wal.next_sn = 50;
              detail =
                Printf.sprintf "floors=[%s] next_sn=%d"
                  (String.concat "; "
                     (List.map (fun (s, n) -> Printf.sprintf "%d:%d" s n) r.Wal.floors))
                  r.Wal.next_sn;
            };
            {
              name = "damaged record skipped and quarantined";
              ok = r.Wal.skipped >= 1 && sidecars <> [];
              detail =
                Printf.sprintf "skipped=%d sidecars=%d" r.Wal.skipped
                  (List.length sidecars);
            };
            {
              name = "recovery reported tainted";
              ok = r.Wal.tainted;
              detail = Printf.sprintf "tainted=%b" r.Wal.tainted;
            };
            {
              name = "rewritten log replays clean";
              ok =
                r2.Wal.skipped = 0 && r2.Wal.truncated = 0 && r2.Wal.next_sn = r.Wal.next_sn
                && r2.Wal.floors = r.Wal.floors;
              detail =
                Printf.sprintf "second recovery: skipped=%d truncated=%d next_sn=%d"
                  r2.Wal.skipped r2.Wal.truncated r2.Wal.next_sn;
            };
          ];
      })

(* ------------------------------------------------------------------ *)
(* state-divergence: a 3-node simulated group replicates an item store;
   after traffic quiesces, one backup's store is scribbled over behind
   the protocol's back. Expected: digest gossip convicts the divergent
   node, it self-demotes and rejoins with state transfer, and all
   replicas converge again. Inverted ([heal:false], detect-only): the
   divergence is counted but the stores stay split and the harness
   flags it. *)

let run_state_divergence ?(heal = true) ?(seed = 11) () =
  let engine = Engine.create ~seed () in
  let tracer = Trace.memory () in
  let config =
    {
      Group.default_config with
      divergence = Some { Svs_core.Member.period = 0.2; rounds = 3; heal };
      tracer;
    }
  in
  let cluster =
    Group.create_cluster engine ~members:[ 0; 1; 2 ] ~latency:(Latency.Constant 0.002)
      ~config ()
  in
  let snapshot = ((fun w v -> Codec.Writer.zigzag w v), fun r -> Codec.Reader.zigzag r) in
  let stores = List.map (fun m -> Store.attach ~snapshot m) (Group.members cluster) in
  List.iter
    (fun st -> Group.set_state_digest (Store.member st) (fun () -> Store.digest st))
    stores;
  let store n = List.nth stores n in
  let counter = ref 0 in
  ignore
    (Engine.every engine ~period:0.05 (fun () ->
         incr counter;
         ignore (Store.submit (store 0) [ Store.Set (!counter mod 8, !counter) ]);
         Engine.now engine < 2.0));
  ignore
    (Engine.every engine ~period:0.02 (fun () ->
         List.iter Store.process stores;
         Engine.now engine < 11.9));
  ignore
    (Engine.schedule_at engine ~time:3.0 (fun () -> Store.corrupt (store 2) ~item:1 (-999)));
  Engine.run ~until:12.0 engine;
  List.iter Store.process stores;
  let detections = Group.divergence_events cluster in
  let converged = Store.store_equal (store 0) (store 2) && Store.store_equal (store 0) (store 1) in
  let oracle =
    Oracle.check ~expect_converged:[ 0; 1; 2 ] ~mode:Oracle.Svs ~seed
      ~scenario:"state-divergence" (Group.checker cluster)
  in
  {
    scenario = "state-divergence";
    checks =
      [
        {
          name = "divergence detected";
          ok = detections >= 1;
          detail = Printf.sprintf "svs_divergence_detected_total=%d" detections;
        };
        {
          name = "divergence traced at the corrupt node";
          ok =
            has_event tracer (function
              | Trace.Divergence { node = 2; _ } -> true
              | _ -> false);
          detail = "";
        };
        {
          name = "replicas reconverged";
          ok = converged;
          detail =
            Printf.sprintf "store(2) item 1 = %s, store(0) item 1 = %s"
              (match Store.get (store 2) 1 with Some v -> string_of_int v | None -> "-")
              (match Store.get (store 0) 1 with Some v -> string_of_int v | None -> "-");
        };
        {
          name = "safety contracts hold through the heal";
          ok = Oracle.ok oracle;
          detail = Format.asprintf "%a" Oracle.pp_report oracle;
        };
      ];
  }

let run ~name ~invert =
  match name with
  | "frame-corruption" -> run_frame_corruption ~quarantine:(not invert) ()
  | "wal-corruption" -> run_wal_corruption ~salvage:(not invert) ()
  | "state-divergence" -> run_state_divergence ~heal:(not invert) ()
  | _ -> invalid_arg ("Hostile.run: unknown scenario " ^ name)
