(* Run a live SVS group member over TCP.

   Start one process per member, e.g. in three terminals:

     svs_node --me 0 --peer 0:127.0.0.1:7100 --peer 1:127.0.0.1:7101 \
              --peer 2:127.0.0.1:7102 --publish 4 --rate 50
     svs_node --me 1 --peer 0:127.0.0.1:7100 --peer 1:127.0.0.1:7101 \
              --peer 2:127.0.0.1:7102
     svs_node --me 2 --peer 0:127.0.0.1:7100 --peer 1:127.0.0.1:7101 \
              --peer 2:127.0.0.1:7102 --consume-rate 10

   The publisher multicasts tagged item updates; every member prints
   what it delivers and each view change. Kill a member and watch the
   survivors agree on the next view; slow a member down (low
   --consume-rate) and watch obsolete updates being purged instead of
   stalling the group. *)

open Cmdliner
module Loop = Svs_rt.Loop
module Node = Svs_rt.Node
module Tcp_mesh = Svs_rt.Tcp_mesh
module Admin = Svs_rt.Admin
module Types = Svs_core.Types
module View = Svs_core.View
module Wire_codec = Svs_core.Wire_codec
module Annotation = Svs_obs.Annotation
module Metrics = Svs_telemetry.Metrics
module Trace = Svs_telemetry.Trace

let payload_codec = Wire_codec.pair_codec Wire_codec.int_codec Wire_codec.int_codec

let parse_peer s =
  match String.split_on_char ':' s with
  | [ id; host; port ] -> (
      match (int_of_string_opt id, int_of_string_opt port) with
      | Some id, Some port -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } -> Error (`Msg ("no address for " ^ host))
          | { Unix.h_addr_list; _ } -> Ok (id, Unix.ADDR_INET (h_addr_list.(0), port))
          | exception Not_found -> Error (`Msg ("unknown host " ^ host)))
      | _ -> Error (`Msg ("bad peer spec: " ^ s)))
  | _ -> Error (`Msg ("peer spec must be id:host:port, got " ^ s))

let peer_conv =
  Arg.conv
    ( parse_peer,
      fun ppf (id, addr) ->
        match addr with
        | Unix.ADDR_INET (a, p) ->
            Format.fprintf ppf "%d:%s:%d" id (Unix.string_of_inet_addr a) p
        | Unix.ADDR_UNIX path -> Format.fprintf ppf "%d:unix:%s" id path )

let run me peers publish rate consume_rate duration reliable park_timeout data_dir divergence_period trace_file admin_port flight_file stats_period verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  if peers = [] then `Error (false, "at least one --peer required")
  else if not (List.mem_assoc me peers) then
    `Error (false, Printf.sprintf "--me %d has no --peer entry" me)
  else
    match Option.map open_out trace_file with
    | exception Sys_error e -> `Error (false, "cannot open trace file: " ^ e)
    | trace_oc ->
    let loop = Loop.create () in
    let listen_addr = List.assoc me peers in
    let listen_fd, _ = Tcp_mesh.listener listen_addr in
    let metrics = Metrics.create () in
    (* Flight recorder: a bounded ring of the last protocol events,
       always on. Dumped as JSONL on park, crash, or GET /dump — the
       postmortem for "what was this node doing just before". *)
    let flight = Trace.ring ~capacity:4096 () in
    let tracer =
      match trace_oc with None -> flight | Some oc -> Trace.tee (Trace.jsonl oc) flight
    in
    let flight_path =
      match flight_file with Some f -> f | None -> Printf.sprintf "svs-flight-%d.jsonl" me
    in
    let flight_jsonl () =
      let b = Buffer.create 4096 in
      List.iter
        (fun r ->
          Buffer.add_string b (Trace.record_to_json r);
          Buffer.add_char b '\n')
        (Trace.records flight);
      Buffer.contents b
    in
    let dump_flight reason =
      match open_out flight_path with
      | oc ->
          let events = List.length (Trace.records flight) in
          output_string oc (flight_jsonl ());
          close_out oc;
          Format.printf "[%d] flight recorder: %d event(s) -> %s (%s)@." me events flight_path
            reason
      | exception Sys_error e -> Format.printf "[%d] flight recorder: cannot write: %s@." me e
    in
    let config =
      {
        Node.default_config with
        semantic = not reliable;
        park_timeout;
        tracer;
        metrics = Some metrics;
        divergence_period;
      }
    in
    let delivered = ref 0 in
    match
      Node.create loop ~me ~listen_fd ~peers ~payload_codec ~config ?data_dir
        ~on_synced:(fun v _app -> Format.printf "[%d] *** rejoined in %a ***@." me View.pp v)
        ()
    with
    | exception Svs_rt.Wal.Open_error e ->
        (* Refuse the data dir rather than scribble over another
           node's log; non-zero exit so supervisors notice. *)
        Option.iter close_out trace_oc;
        `Error (false, Svs_rt.Wal.open_error_message e)
    | node ->
    if Node.is_joining node then
      Format.printf "[%d] restarting from %s; asking the group to readmit me@." me
        (Option.value ~default:"?" data_dir);
    let admin =
      match admin_port with
      | None -> None
      | Some port ->
          let addr = Unix.ADDR_INET (Unix.inet_addr_any, port) in
          let a =
            Admin.create loop ~addr
              [
                ("/metrics", fun () -> Admin.prometheus (Metrics.prometheus_string metrics));
                ("/status", fun () -> Admin.json (Node.status_json node));
                ( "/health",
                  fun () ->
                    match Node.status_label node with
                    | ("member" | "blocked") as s -> Admin.text ("ok " ^ s ^ "\n")
                    | s -> Admin.text ~status:503 (s ^ "\n") );
                ("/dump", fun () -> Admin.text (flight_jsonl ()));
              ]
          in
          Format.printf "[%d] admin endpoint on port %d@." me (Admin.port a);
          Some a
    in
    (* One idempotent teardown shared by the normal exit path, the
       SIGINT/SIGTERM path (the signal stops the loop; at_exit covers a
       handler racing straight into exit), and the crash path. *)
    let cleaned = ref false in
    let cleanup () =
      if not !cleaned then begin
        cleaned := true;
        Option.iter Admin.close admin;
        Node.shutdown node;
        Trace.flush tracer;
        Option.iter close_out trace_oc
      end
    in
    at_exit cleanup;
    let on_signal _ = Loop.stop loop in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    (* Deliveries are pulled at the consumption rate (a slow consumer
       is simulated by a low --consume-rate); unconsumed messages stay
       in the protocol buffers where they remain purgeable. *)
    let consume () =
      match Node.deliver node with
      | None -> ()
      | Some (Types.Data d) ->
          incr delivered;
          let item, v = d.Types.payload in
          Format.printf "[%d] item %d = %d@." me item v
      | Some (Types.View_change v) -> Format.printf "[%d] *** new view %a ***@." me View.pp v
    in
    (match consume_rate with
    | None ->
        ignore
          (Loop.every loop ~period:0.01 (fun () ->
               while Node.pending node > 0 do
                 consume ()
               done;
               true)
            : Loop.timer)
    | Some r ->
        ignore
          (Loop.every loop ~period:(1.0 /. float_of_int r) (fun () ->
               consume ();
               true)
            : Loop.timer));
    (match publish with
    | None -> ()
    | Some items ->
        let counter = ref 0 in
        ignore
          (Loop.every loop ~period:(1.0 /. float_of_int rate) (fun () ->
               incr counter;
               let item = !counter mod items in
               (match Node.multicast node ~ann:(Annotation.Tag item) (item, !counter) with
               | Ok _ -> ()
               | Error `Blocked -> ()
               | Error `Not_member -> Format.printf "[%d] no longer a member@." me);
               true)
            : Loop.timer));
    (* Periodic one-line stats: the handful of numbers that matter,
       straight from the node's accessors, then every registered
       instrument when --verbose. *)
    let site s = Node.purged_at node s in
    let stats_line () =
      Format.printf
        "[%d] stats: status=%s view=%d delivered=%d pending=%d purged=%d(m:%d/r:%d/i:%d) \
         bytes_out=%d bytes_in=%d suspicions=%d%s%s@."
        me (Node.status_label node) (Node.view node).View.id !delivered (Node.pending node)
        (Node.purged node) (site Trace.At_multicast) (site Trace.At_receive)
        (site Trace.At_install) (Node.bytes_out node) (Node.bytes_in node)
        (Node.suspicions node)
        (match Node.wal_segment node with
        | Some seg -> Printf.sprintf " wal_seg=%d" seg
        | None -> "")
        (if Node.parked node then " PARKED" else "");
      if verbose then Format.printf "[%d] metrics: %a@." me Metrics.pp_line metrics
    in
    (* Parking is the "what just happened?" moment: snapshot the flight
       recorder the first time we observe it. *)
    let park_dumped = ref false in
    ignore
      (Loop.every loop ~period:0.25 (fun () ->
           if Node.parked node && not !park_dumped then begin
             park_dumped := true;
             dump_flight "parked"
           end;
           true)
        : Loop.timer);
    (match stats_period with
    | None -> ()
    | Some period when period <= 0.0 -> ()
    | Some period ->
        ignore
          (Loop.every loop ~period (fun () ->
               stats_line ();
               Trace.flush tracer;
               true)
            : Loop.timer));
    (match duration with
    | None -> ()
    | Some seconds -> ignore (Loop.after loop ~delay:seconds (fun () -> Loop.stop loop)));
    Format.printf "[%d] up; initial view %a@." me View.pp (Node.view node);
    (try Loop.run loop
     with exn ->
       dump_flight (Printf.sprintf "crash: %s" (Printexc.to_string exn));
       cleanup ();
       raise exn);
    Format.printf "[%d] done: delivered=%d purged=%d final view %a@." me !delivered
      (Node.purged node) View.pp (Node.view node);
    Format.printf "[%d] final metrics: %a@." me Metrics.pp_line metrics;
    cleanup ();
    `Ok ()

let cmd =
  let me =
    Arg.(required & opt (some int) None & info [ "me" ] ~docv:"ID" ~doc:"This member's id.")
  in
  let peers =
    Arg.(
      value & opt_all peer_conv []
      & info [ "peer" ] ~docv:"ID:HOST:PORT" ~doc:"A group member (repeat for each).")
  in
  let publish =
    Arg.(
      value & opt (some int) None
      & info [ "publish" ] ~docv:"ITEMS" ~doc:"Publish tagged updates over this many items.")
  in
  let rate =
    Arg.(value & opt int 20 & info [ "rate" ] ~docv:"MSG/S" ~doc:"Publish rate.")
  in
  let consume_rate =
    Arg.(
      value & opt (some int) None
      & info [ "consume-rate" ] ~docv:"MSG/S"
          ~doc:"Throttle local delivery (simulates a slow member).")
  in
  let duration =
    Arg.(
      value & opt (some float) None
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Exit after this long (default: run forever).")
  in
  let reliable =
    Arg.(value & flag & info [ "reliable" ] ~doc:"Disable purging (plain view synchrony).")
  in
  let park_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "park-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Primary-component survival: a member still blocked in the same view change \
             after $(docv) seconds parks (stops multicasting and delivering) and probes \
             its way back in, merging automatically when the partition heals. Best \
             combined with $(b,--data-dir) so the merge resumes from durable floors.")
  in
  let data_dir =
    Arg.(
      value & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Durable state (write-ahead log) in $(docv). A restart over an existing \
             $(docv) recovers identity, last view, delivery floors and the sequence \
             lease, then rejoins the group through the JOIN/SYNC handshake.")
  in
  let divergence_period =
    Arg.(
      value
      & opt (some float) None
      & info [ "divergence-period" ] ~docv:"SECONDS"
          ~doc:
            "Replicated-state divergence self-healing: send this node's state digest \
             to the rest of its view at this period, and compare the reports. A \
             quiescent member whose digest \
             disagrees with a unanimous rest-of-view for several consecutive rounds \
             self-demotes and re-enters through JOIN/SYNC with state transfer \
             (counted in $(b,svs_divergence_detected_total)).")
  in
  let trace_file =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a structured trace (one JSON object per protocol event: multicasts, \
             purges, blocks, view installs, suspicions, reconnects) to $(docv).")
  in
  let admin_port =
    Arg.(
      value & opt (some int) None
      & info [ "admin-port" ] ~docv:"PORT"
          ~doc:
            "Serve a live admin endpoint on $(docv): $(b,/metrics) (Prometheus text \
             exposition), $(b,/status) (JSON node snapshot), $(b,/health), and \
             $(b,/dump) (flight-recorder contents as JSONL). Port 0 picks an ephemeral \
             port (printed at startup).")
  in
  let flight_file =
    Arg.(
      value & opt (some string) None
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:
            "Where the flight recorder (a ring of the last 4096 protocol events, always \
             on) dumps JSONL when the node parks or crashes. Default \
             $(b,svs-flight-<id>.jsonl).")
  in
  let stats_period =
    Arg.(
      value & opt (some float) (Some 5.0)
      & info [ "stats-period" ] ~docv:"SECONDS"
          ~doc:"Period of the one-line stats report (0 disables).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Protocol debug logging.")
  in
  Cmd.v
    (Cmd.info "svs_node" ~version:"1.0.0" ~doc:"Run a live SVS group member over TCP")
    Term.(
      ret
        (const run $ me $ peers $ publish $ rate $ consume_rate $ duration $ reliable
       $ park_timeout $ data_dir $ divergence_period $ trace_file
       $ admin_port $ flight_file $ stats_period $ verbose))

let () = exit (Cmd.eval cmd)
