(* Tests for the real-time runtime: event loop, TCP mesh, and a live
   three-node SVS group over loopback TCP. These run in real time, so
   they use short heartbeat settings and generous wall-clock guards. *)

module Loop = Svs_rt.Loop
module Tcp_mesh = Svs_rt.Tcp_mesh
module Node = Svs_rt.Node
module Types = Svs_core.Types
module View = Svs_core.View
module Wire_codec = Svs_core.Wire_codec
module Annotation = Svs_obs.Annotation

(* --- Loop --- *)

let test_loop_after_ordering () =
  let loop = Loop.create () in
  let log = ref [] in
  ignore (Loop.after loop ~delay:0.03 (fun () -> log := 2 :: !log));
  ignore (Loop.after loop ~delay:0.01 (fun () -> log := 1 :: !log));
  Loop.run ~timeout:0.2 loop;
  Alcotest.(check (list int)) "timers in order" [ 1; 2 ] (List.rev !log)

let test_loop_every_and_cancel () =
  let loop = Loop.create () in
  let count = ref 0 in
  let timer =
    Loop.every loop ~period:0.005 (fun () ->
        incr count;
        true)
  in
  ignore (Loop.after loop ~delay:0.05 (fun () -> Loop.cancel timer));
  Loop.run ~timeout:0.3 loop;
  Alcotest.(check bool) (Printf.sprintf "ran a few times (%d)" !count) true
    (!count >= 3 && !count <= 20)

let test_loop_every_stops_on_false () =
  let loop = Loop.create () in
  let count = ref 0 in
  ignore
    (Loop.every loop ~period:0.005 (fun () ->
         incr count;
         !count < 3));
  Loop.run ~timeout:0.3 loop;
  Alcotest.(check int) "stopped at 3" 3 !count

let test_loop_readable_fd () =
  let loop = Loop.create () in
  let r, w = Unix.pipe () in
  let got = ref "" in
  Loop.on_readable loop r (fun () ->
      let buf = Bytes.create 16 in
      let n = Unix.read r buf 0 16 in
      got := Bytes.sub_string buf 0 n;
      Loop.stop loop);
  ignore
    (Loop.after loop ~delay:0.01 (fun () ->
         ignore (Unix.write_substring w "ping" 0 4)));
  Loop.run ~timeout:0.5 loop;
  Unix.close r;
  Unix.close w;
  Alcotest.(check string) "read the bytes" "ping" !got

let test_loop_until_predicate () =
  let loop = Loop.create () in
  let count = ref 0 in
  ignore
    (Loop.every loop ~period:0.002 (fun () ->
         incr count;
         true));
  Loop.run ~until:(fun () -> !count >= 5) ~timeout:0.5 loop;
  Alcotest.(check bool) "stopped at predicate" true (!count >= 5 && !count < 20)

(* A pipe that stays readable makes every iteration dispatch exactly
   one read callback, so iterations can be counted. The hook runs once
   per iteration, after the previous iteration's callback and before
   this one's; a hook that returns [false] is not run again. *)
let test_loop_before_wait_hooks () =
  let loop = Loop.create () in
  let r, w = Unix.pipe () in
  ignore (Unix.write_substring w "x" 0 1);
  let reads = ref 0 and hooks = ref 0 and in_order = ref true and once = ref 0 in
  Loop.on_readable loop r (fun () ->
      let buf = Bytes.create 1 in
      ignore (Unix.read r buf 0 1);
      ignore (Unix.write_substring w "x" 0 1);
      incr reads);
  Loop.before_wait loop (fun () ->
      if !reads <> !hooks then in_order := false;
      incr hooks;
      true);
  Loop.before_wait loop (fun () ->
      incr once;
      !once < 3);
  Loop.run ~until:(fun () -> !reads >= 20) ~timeout:2.0 loop;
  Unix.close r;
  Unix.close w;
  Alcotest.(check int) "one hook run per iteration" !reads !hooks;
  Alcotest.(check bool) "each before that iteration's wait" true !in_order;
  Alcotest.(check int) "dropped after returning false" 3 !once

(* A callback that overruns its period does not leave a debt: the
   timer re-arms from when the callback returned, so after one 50 ms
   stall a 5 ms timer fires once, not once per period it missed. *)
let test_loop_every_after_stall () =
  let loop = Loop.create () in
  let stalled = ref false and after_stall = ref 0 in
  ignore
    (Loop.every loop ~period:0.005 (fun () ->
         if !stalled then incr after_stall
         else begin
           Unix.sleepf 0.05;
           stalled := true
         end;
         true));
  Loop.run ~until:(fun () -> !after_stall >= 1) ~timeout:1.0 loop;
  Alcotest.(check int) "one firing after the stall" 1 !after_stall

(* Idle timers cost an iteration nothing: a loop iteration with ten
   pending timers allocates no more than one with none. The pipe stays
   readable, so every iteration returns from select at once. *)
let test_loop_idle_timer_words () =
  let words_per_iteration timers =
    let loop = Loop.create () in
    let r, w = Unix.pipe () in
    ignore (Unix.write_substring w "x" 0 1);
    let iterations = ref 0 in
    Loop.on_readable loop r (fun () -> incr iterations);
    for _ = 1 to timers do
      ignore (Loop.every loop ~period:3600.0 (fun () -> true) : Loop.timer)
    done;
    let measure n =
      iterations := 0;
      let w0 = Gc.minor_words () in
      Loop.run ~until:(fun () -> !iterations >= n) ~timeout:10.0 loop;
      (Gc.minor_words () -. w0) /. float_of_int !iterations
    in
    ignore (measure 100 : float);
    let words = measure 5000 in
    Unix.close r;
    Unix.close w;
    words
  in
  let none = words_per_iteration 0 and ten = words_per_iteration 10 in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f words with 10 idle timers, %.3f with none" ten none)
    true
    (ten <= none +. 0.05)

(* --- Tcp_mesh --- *)

(* on_frame hands out borrowed slices; tests that retain frames copy
   them out. *)
let str = Svs_codec.Codec.Slice.to_string

let loopback = Unix.inet_addr_loopback

let test_mesh_exchange () =
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let fd1, addr1 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let peers = [ (0, addr0); (1, addr1) ] in
  let got0 = ref [] and got1 = ref [] in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers
      ~on_frame:(fun ~src frame -> got0 := (src, str frame) :: !got0)
      ()
  in
  let mesh1 =
    Tcp_mesh.create loop ~me:1 ~listen_fd:fd1 ~peers
      ~on_frame:(fun ~src frame -> got1 := (src, str frame) :: !got1)
      ()
  in
  Tcp_mesh.send mesh0 ~dst:1 "hello";
  Tcp_mesh.send mesh0 ~dst:1 "world";
  Tcp_mesh.send mesh1 ~dst:0 "back";
  Loop.run ~until:(fun () -> List.length !got1 >= 2 && List.length !got0 >= 1) ~timeout:5.0 loop;
  Alcotest.(check (list (pair int string))) "mesh1 got both in order" [ (0, "hello"); (0, "world") ]
    (List.rev !got1);
  Alcotest.(check (list (pair int string))) "mesh0 got reply" [ (1, "back") ] (List.rev !got0);
  Tcp_mesh.close mesh0;
  Tcp_mesh.close mesh1

let test_mesh_large_frame () =
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let fd1, addr1 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let peers = [ (0, addr0); (1, addr1) ] in
  let got = ref None in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers ~on_frame:(fun ~src:_ _ -> ()) ()
  in
  let mesh1 =
    Tcp_mesh.create loop ~me:1 ~listen_fd:fd1 ~peers
      ~on_frame:(fun ~src:_ frame -> got := Some (str frame))
      ()
  in
  let big = String.init 300_000 (fun i -> Char.chr (i mod 251)) in
  Tcp_mesh.send mesh0 ~dst:1 big;
  Loop.run ~until:(fun () -> !got <> None) ~timeout:5.0 loop;
  (match !got with
  | Some frame ->
      Alcotest.(check int) "length survives" (String.length big) (String.length frame);
      Alcotest.(check bool) "content survives" true (String.equal big frame)
  | None -> Alcotest.fail "large frame not delivered");
  Tcp_mesh.close mesh0;
  Tcp_mesh.close mesh1

(* The mesh flushes when the loop is about to wait: a frame sent from a
   timer callback reaches the peer in the iteration that sent it, with
   no flush timer to wait for. Iterations are counted by a hook. *)
let test_mesh_flushes_before_wait () =
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let fd1, addr1 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let peers = [ (0, addr0); (1, addr1) ] in
  let iteration = ref 0 in
  Loop.before_wait loop (fun () ->
      incr iteration;
      true);
  let got = ref [] in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers ~on_frame:(fun ~src:_ _ -> ()) ()
  in
  let mesh1 =
    Tcp_mesh.create loop ~me:1 ~listen_fd:fd1 ~peers
      ~on_frame:(fun ~src:_ frame -> got := (str frame, !iteration) :: !got)
      ()
  in
  (* Bring the link up first: accept, hello. *)
  Tcp_mesh.send mesh0 ~dst:1 "warm-up";
  Loop.run ~until:(fun () -> !got <> []) ~timeout:5.0 loop;
  let sent_in = ref (-1) in
  ignore
    (Loop.after loop ~delay:0.0 (fun () ->
         sent_in := !iteration + 1;
         Tcp_mesh.send mesh0 ~dst:1 "from-timer"));
  Loop.run ~until:(fun () -> List.length !got >= 2) ~timeout:5.0 loop;
  (match !got with
  | ("from-timer", received_in) :: _ ->
      Alcotest.(check int) "received in the sending iteration" !sent_in received_in
  | _ -> Alcotest.fail "timer frame not delivered");
  Tcp_mesh.close mesh0;
  Tcp_mesh.close mesh1

let test_mesh_queues_until_connected () =
  (* Send before the peer's listener even exists: frames are buffered
     and flushed once the dial-retry loop connects. *)
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  (* Reserve an address for peer 1 without accepting yet. *)
  let fd1_tmp, addr1 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  Unix.close fd1_tmp;
  let peers = [ (0, addr0); (1, addr1) ] in
  let got = ref [] in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers ~on_frame:(fun ~src:_ _ -> ()) ()
  in
  Tcp_mesh.send mesh0 ~dst:1 "early";
  Alcotest.(check bool) "buffered while disconnected" true
    (Tcp_mesh.pending_bytes mesh0 ~dst:1 > 0);
  (* Bring peer 1 up at the promised address. *)
  let fd1, _ = Tcp_mesh.listener addr1 in
  let mesh1 =
    Tcp_mesh.create loop ~me:1 ~listen_fd:fd1 ~peers
      ~on_frame:(fun ~src frame -> got := (src, str frame) :: !got)
      ()
  in
  Loop.run ~until:(fun () -> !got <> []) ~timeout:5.0 loop;
  Alcotest.(check (list (pair int string))) "early frame arrived" [ (0, "early") ] !got;
  Tcp_mesh.close mesh0;
  Tcp_mesh.close mesh1

module Trace = Svs_telemetry.Trace

let drop_reasons tracer =
  List.filter_map
    (function
      | { Trace.event = Trace.TcpDrop { reason; _ }; _ } -> Some reason | _ -> None)
    (Trace.records tracer)

let test_mesh_unknown_dst_drop () =
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let tracer = Trace.memory () in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers:[ (0, addr0) ]
      ~on_frame:(fun ~src:_ _ -> ())
      ~tracer ()
  in
  Tcp_mesh.send mesh0 ~dst:99 "lost";
  Alcotest.(check int) "counted" 1 (Tcp_mesh.frames_dropped mesh0);
  Alcotest.(check (list string)) "traced with reason" [ "unknown-dst" ] (drop_reasons tracer);
  Tcp_mesh.close mesh0

let test_mesh_oversize_resets_link () =
  (* A frame above the receiver's limit must reset that link instead of
     being buffered; frames that arrived before it are unaffected. *)
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let fd1, addr1 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let peers = [ (0, addr0); (1, addr1) ] in
  let got = ref [] in
  let tracer = Trace.memory () in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers ~on_frame:(fun ~src:_ _ -> ()) ()
  in
  let mesh1 =
    Tcp_mesh.create loop ~me:1 ~listen_fd:fd1 ~peers
      ~on_frame:(fun ~src:_ frame -> got := str frame :: !got)
      ~tracer ~max_frame:1024 ()
  in
  Tcp_mesh.send mesh0 ~dst:1 "small";
  Loop.run ~until:(fun () -> !got <> []) ~timeout:5.0 loop;
  Tcp_mesh.send mesh0 ~dst:1 (String.make 4096 'x');
  Tcp_mesh.send mesh0 ~dst:1 "small-after";
  Loop.run ~timeout:0.5 loop;
  Alcotest.(check (list string)) "only the pre-oversize frame" [ "small" ] (List.rev !got);
  Alcotest.(check int) "oversize counted" 1 (Tcp_mesh.frames_oversize mesh1);
  Alcotest.(check bool) "traced as oversize" true
    (List.mem "oversize" (drop_reasons tracer));
  Tcp_mesh.close mesh0;
  Tcp_mesh.close mesh1

let test_mesh_dial_backoff () =
  (* An unreachable peer: retries must back off exponentially, not
     hammer once per poll tick. *)
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let fd1_tmp, addr1 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  Unix.close fd1_tmp;
  let dial =
    { Tcp_mesh.default_dial_policy with base_delay = 0.1; max_delay = 1.0 }
  in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers:[ (0, addr0); (1, addr1) ]
      ~on_frame:(fun ~src:_ _ -> ())
      ~dial ()
  in
  Loop.run ~timeout:0.6 loop;
  let attempts = Tcp_mesh.dial_attempts mesh0 ~dst:1 in
  Alcotest.(check bool)
    (Printf.sprintf "backed off (%d attempts in 0.6s)" attempts)
    true
    (attempts >= 2 && attempts <= 5);
  Alcotest.(check bool) "still willing to dial" false (Tcp_mesh.written_off mesh0 ~dst:1);
  Tcp_mesh.close mesh0

let test_mesh_dial_cap_writes_off () =
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let fd1_tmp, addr1 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  Unix.close fd1_tmp;
  let tracer = Trace.memory () in
  let dial =
    {
      Tcp_mesh.base_delay = 0.01;
      max_delay = 0.05;
      multiplier = 2.0;
      jitter = 0.2;
      max_attempts = Some 3;
    }
  in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers:[ (0, addr0); (1, addr1) ]
      ~on_frame:(fun ~src:_ _ -> ())
      ~tracer ~dial ()
  in
  Tcp_mesh.send mesh0 ~dst:1 "doomed";
  Loop.run ~timeout:0.5 loop;
  Alcotest.(check bool) "written off after the cap" true (Tcp_mesh.written_off mesh0 ~dst:1);
  Alcotest.(check int) "queue flushed, nothing pending" 0 (Tcp_mesh.pending_bytes mesh0 ~dst:1);
  Alcotest.(check bool) "queued frame counted as dropped" true
    (Tcp_mesh.frames_dropped mesh0 >= 1);
  Alcotest.(check bool) "traced as dial-cap" true (List.mem "dial-cap" (drop_reasons tracer));
  (* Further sends are refused loudly, not buffered forever. *)
  let before = Tcp_mesh.frames_dropped mesh0 in
  Tcp_mesh.send mesh0 ~dst:1 "late";
  Alcotest.(check int) "late frame dropped" (before + 1) (Tcp_mesh.frames_dropped mesh0);
  Alcotest.(check bool) "traced as written-off" true
    (List.mem "written-off" (drop_reasons tracer));
  Tcp_mesh.close mesh0

(* Torn-batch reassembly: arbitrary inner frames grouped into arbitrary
   batches, the byte stream delivered in arbitrary chunk splits
   (including cuts inside the 4-byte header and inside varints) — the
   assembler plus the batch iterator must yield exactly the original
   inner frames, in order, with nothing left buffered at the end. *)

let rec take k = function
  | x :: rest when k > 0 ->
      let a, b = take (k - 1) rest in
      (x :: a, b)
  | rest -> ([], rest)

let add_varint buf v =
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

let add_be32 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff))

let batch_stream inner batch_sizes =
  let stream = Buffer.create 256 in
  let payload = Buffer.create 256 in
  let rec build inner sizes =
    match inner with
    | [] -> ()
    | _ ->
        let k, sizes =
          match sizes with [] -> (3, []) | s :: rest -> (s, rest)
        in
        let batch, rest = take k inner in
        Buffer.clear payload;
        List.iter
          (fun s ->
            add_varint payload (String.length s);
            Buffer.add_string payload s)
          batch;
        add_be32 stream (Buffer.length payload);
        Buffer.add_buffer stream payload;
        build rest sizes
  in
  build inner batch_sizes;
  Buffer.contents stream

let torn_batch_property =
  QCheck.Test.make ~name:"torn-batch reassembly yields the exact inner frames" ~count:300
    (QCheck.make
       ~print:(fun (inner, sizes, cuts) ->
         Printf.sprintf "%d frames, %d batch sizes, %d cuts" (List.length inner)
           (List.length sizes) (List.length cuts))
       QCheck.Gen.(
         triple
           (list_size (int_range 0 25) (string_size (int_range 0 200)))
           (list_size (int_range 0 10) (int_range 1 4))
           (list_size (int_range 0 30) (int_range 1 97))))
    (fun (inner, batch_sizes, cuts) ->
      let stream = batch_stream inner batch_sizes in
      let asm = Tcp_mesh.Assembler.create () in
      let out = ref [] in
      let bad = ref false in
      let rec drain () =
        match Tcp_mesh.Assembler.next asm with
        | Tcp_mesh.Assembler.Frame slice ->
            (* Copy out: the slice dies at the next feed. *)
            Tcp_mesh.iter_batch slice (fun s ->
                out := Svs_codec.Codec.Slice.to_string s :: !out);
            drain ()
        | Tcp_mesh.Assembler.Await -> ()
        | Tcp_mesh.Assembler.Oversize _ -> bad := true
      in
      let cuts = if cuts = [] then [ 1 ] else cuts in
      let ncuts = List.length cuts in
      let pos = ref 0 and i = ref 0 in
      while !pos < String.length stream do
        let k = min (List.nth cuts (!i mod ncuts)) (String.length stream - !pos) in
        Tcp_mesh.Assembler.feed asm (String.sub stream !pos k);
        pos := !pos + k;
        incr i;
        drain ()
      done;
      (not !bad) && List.rev !out = inner && Tcp_mesh.Assembler.buffered asm = 0)

(* --- Iobuf: burst shrink --- *)

module Iobuf = Svs_rt.Iobuf

let test_iobuf_shrink () =
  let buf = Iobuf.create ~capacity:64 ~shrink:1024 () in
  let initial = Iobuf.capacity buf in
  (* A burst well past the shrink threshold grows the backing. *)
  Iobuf.add_string buf (String.make 4096 'a');
  Alcotest.(check bool) "backing grew past shrink" true (Iobuf.capacity buf > 1024);
  (* Draining the burst releases the oversized backing. *)
  Iobuf.consume buf (Iobuf.length buf);
  Alcotest.(check int) "empty after drain" 0 (Iobuf.length buf);
  Alcotest.(check int) "backing released to initial size" initial (Iobuf.capacity buf);
  (* Steady-state traffic below the threshold keeps its backing. *)
  Iobuf.add_string buf (String.make 512 'b');
  let steady = Iobuf.capacity buf in
  Iobuf.consume buf (Iobuf.length buf);
  Alcotest.(check int) "small backing survives drain" steady (Iobuf.capacity buf);
  (* Partial drains never shrink: live bytes stay addressable. *)
  Iobuf.add_string buf (String.make 4096 'c');
  Iobuf.consume buf 4000;
  Alcotest.(check bool) "partial drain keeps backing" true (Iobuf.capacity buf > 1024);
  Alcotest.(check int) "tail intact" 96 (Iobuf.length buf)

(* --- Tcp_mesh: backpressure + semantic shedding --- *)

module Shed = Svs_obs.Shed
module Msg_id = Svs_obs.Msg_id

(* Deterministic shed scenario: queue a chain of mutually-obsoleting
   frames faster than the link can drain them (here: before the loop
   runs at all, so nothing drains). The first frame fills the open
   batch past the soft watermark; every later frame lands in the
   overflow stage where the newest Tag covers all its predecessors,
   so only the head of the committed batch and the newest queued
   frame should ever reach the wire. *)
let test_mesh_shed_obsolete_frames () =
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let fd1, addr1 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let peers = [ (0, addr0); (1, addr1) ] in
  let got = ref [] in
  let bp =
    { Tcp_mesh.default_backpressure with soft = 4096; hard = 1 lsl 20; resume = 1024 }
  in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers
      ~on_frame:(fun ~src:_ _ -> ())
      ~backpressure:bp ()
  in
  let mesh1 =
    Tcp_mesh.create loop ~me:1 ~listen_fd:fd1 ~peers
      ~on_frame:(fun ~src:_ frame -> got := str frame :: !got)
      ()
  in
  let n = 30 in
  let payload i = Printf.sprintf "%06d|" i ^ String.make 8185 'x' in
  let sn_of s = int_of_string (String.sub s 0 6) in
  for i = 0 to n - 1 do
    let meta =
      { Shed.id = Msg_id.make ~sender:0 ~sn:i; ann = Annotation.Tag 7; view = 0 }
    in
    Tcp_mesh.send mesh0 ~dst:1 ~meta (payload i)
  done;
  let shed = Tcp_mesh.shed_frames mesh0 in
  Alcotest.(check bool) "most of the chain was shed" true (shed >= n - 4);
  (* Now let the loop connect and drain what survived. *)
  Loop.run
    ~until:(fun () -> List.exists (fun s -> sn_of s = n - 1) !got)
    ~timeout:5.0 loop;
  let sns = List.rev_map sn_of !got in
  Alcotest.(check bool) "newest frame delivered" true (List.mem (n - 1) sns);
  Alcotest.(check int) "survivors + shed = sent" n (List.length sns + shed);
  (* FIFO survives shedding: the survivors arrive in send order. *)
  Alcotest.(check (list int)) "survivors in order" (List.sort compare sns) sns;
  Tcp_mesh.close mesh0;
  Tcp_mesh.close mesh1

(* A shed frame is a tombstone for the cover walk only: its bytes are
   freed at once, not when the link drains. Sixty 8 KiB frames queue
   behind an undrained link, each shedding its predecessor; what the
   mesh still holds must be far below the chain's 480 KiB. *)
let test_mesh_shed_frees_bytes () =
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let fd1, addr1 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let peers = [ (0, addr0); (1, addr1) ] in
  let bp =
    { Tcp_mesh.default_backpressure with soft = 4096; hard = 1 lsl 20; resume = 1024 }
  in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers
      ~on_frame:(fun ~src:_ _ -> ())
      ~backpressure:bp ()
  in
  let mesh1 =
    Tcp_mesh.create loop ~me:1 ~listen_fd:fd1 ~peers ~on_frame:(fun ~src:_ _ -> ()) ()
  in
  let n = 60 and size = 8192 in
  for i = 0 to n - 1 do
    let meta =
      { Shed.id = Msg_id.make ~sender:0 ~sn:i; ann = Annotation.Tag 7; view = 0 }
    in
    Tcp_mesh.send mesh0 ~dst:1 ~meta (Printf.sprintf "%06d|" i ^ String.make (size - 7) 'x')
  done;
  Alcotest.(check bool) "most of the chain was shed" true (Tcp_mesh.shed_frames mesh0 >= n - 4);
  let held = Obj.reachable_words (Obj.repr mesh0) * (Sys.word_size / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "mesh holds %d KiB" (held / 1024))
    true
    (held < n * size / 4);
  Tcp_mesh.close mesh0;
  Tcp_mesh.close mesh1

(* Without shedding the same chain must be retained bit-for-bit. *)
let test_mesh_no_shed_keeps_chain () =
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let fd1, addr1 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let peers = [ (0, addr0); (1, addr1) ] in
  let got = ref 0 in
  let bp =
    { Tcp_mesh.default_backpressure with soft = 4096; hard = 1 lsl 20; resume = 1024;
      shed = false }
  in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers
      ~on_frame:(fun ~src:_ _ -> ())
      ~backpressure:bp ()
  in
  let mesh1 =
    Tcp_mesh.create loop ~me:1 ~listen_fd:fd1 ~peers
      ~on_frame:(fun ~src:_ _ -> incr got)
      ()
  in
  let n = 30 in
  for i = 0 to n - 1 do
    let meta =
      { Shed.id = Msg_id.make ~sender:0 ~sn:i; ann = Annotation.Tag 7; view = 0 }
    in
    Tcp_mesh.send mesh0 ~dst:1 ~meta (Printf.sprintf "%06d|" i ^ String.make 8185 'x')
  done;
  Alcotest.(check int) "nothing shed" 0 (Tcp_mesh.shed_frames mesh0);
  Loop.run ~until:(fun () -> !got >= n) ~timeout:5.0 loop;
  Alcotest.(check int) "every frame delivered" n !got;
  Tcp_mesh.close mesh0;
  Tcp_mesh.close mesh1

(* --- Wal: durable node state --- *)

module Wal = Svs_rt.Wal

let temp_dir () =
  let path = Filename.temp_file "svs-wal" "" in
  Sys.remove path;
  path

let last_segment dir =
  match
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".log")
    |> List.sort compare |> List.rev
  with
  | [] -> Alcotest.fail "no WAL segment on disk"
  | f :: _ -> Filename.concat dir f

let segment_count dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".log")
  |> List.length

(* Unwrap [Wal.open_] for the tests that expect it to succeed. *)
let wal_open ?segment_limit ?salvage ~dir ~me () =
  match Wal.open_ ~dir ~me ?segment_limit ?salvage () with
  | Ok wr -> wr
  | Error e -> Alcotest.fail (Wal.open_error_message e)

let test_wal_round_trip () =
  let dir = temp_dir () in
  let w, r0 = wal_open ~dir ~me:7 () in
  Alcotest.(check bool) "fresh on first open" true r0.Wal.fresh;
  Wal.append w (Wal.Install (View.make ~id:3 ~members:[ 0; 1; 7 ]));
  Wal.append w (Wal.Floor { sender = 0; sn = 4 });
  Wal.append w (Wal.Floor { sender = 0; sn = 9 });
  Wal.append w (Wal.Floor { sender = 1; sn = 2 });
  Wal.append_durable w (Wal.Lease { next_sn = 64 });
  Wal.close w;
  let w2, r = wal_open ~dir ~me:7 () in
  Wal.close w2;
  Alcotest.(check bool) "not fresh on reopen" false r.Wal.fresh;
  (match r.Wal.view with
  | Some v ->
      Alcotest.(check int) "view id survives" 3 v.View.id;
      Alcotest.(check (list int)) "view members survive" [ 0; 1; 7 ] v.View.members
  | None -> Alcotest.fail "installed view lost");
  Alcotest.(check (list (pair int int)))
    "floors keep the max per sender"
    [ (0, 9); (1, 2) ]
    (List.sort compare r.Wal.floors);
  Alcotest.(check int) "lease ceiling survives" 64 r.Wal.next_sn;
  Alcotest.(check int) "nothing truncated" 0 r.Wal.truncated

let test_wal_torn_tail () =
  (* A crash mid-write leaves a partial frame at the tail: recovery
     must keep the valid prefix, chop the garbage, and leave the log
     appendable. *)
  let dir = temp_dir () in
  let w, _ = wal_open ~dir ~me:2 () in
  Wal.append_durable w (Wal.Floor { sender = 1; sn = 7 });
  Wal.close w;
  (* A torn write: a header promising 100 bytes, followed by 3. *)
  let fd = Unix.openfile (last_segment dir) [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  let garbage = Bytes.of_string "\x00\x00\x00\x64abc" in
  ignore (Unix.write fd garbage 0 (Bytes.length garbage));
  Unix.close fd;
  let w2, r = wal_open ~dir ~me:2 () in
  Alcotest.(check int) "torn tail chopped" (Bytes.length garbage) r.Wal.truncated;
  Alcotest.(check (list (pair int int))) "valid prefix kept" [ (1, 7) ] r.Wal.floors;
  Wal.append_durable w2 (Wal.Floor { sender = 1; sn = 9 });
  Wal.close w2;
  let w3, r3 = wal_open ~dir ~me:2 () in
  Wal.close w3;
  Alcotest.(check int) "clean after the chop" 0 r3.Wal.truncated;
  Alcotest.(check (list (pair int int))) "appends after recovery stick" [ (1, 9) ]
    r3.Wal.floors

let test_wal_bad_crc () =
  (* Bit rot inside the last record: the checksum must reject it and
     replay must stop there, keeping everything before it. *)
  let dir = temp_dir () in
  let w, _ = wal_open ~dir ~me:5 () in
  Wal.append w (Wal.Install (View.make ~id:1 ~members:[ 0; 5 ]));
  Wal.append_durable w (Wal.Lease { next_sn = 10 });
  Wal.append_durable w (Wal.Floor { sender = 0; sn = 5 });
  Wal.close w;
  let path = last_segment dir in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set_uint8 b 0 (Bytes.get_uint8 b 0 lxor 0xFF);
  ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let w2, r = wal_open ~dir ~me:5 () in
  Wal.close w2;
  Alcotest.(check bool) "corrupt record chopped" true (r.Wal.truncated > 0);
  Alcotest.(check (list (pair int int))) "corrupt floor rejected" [] r.Wal.floors;
  Alcotest.(check int) "records before it survive" 10 r.Wal.next_sn;
  match r.Wal.view with
  | Some v -> Alcotest.(check int) "view survives" 1 v.View.id
  | None -> Alcotest.fail "view lost to an unrelated corruption"

let test_wal_rotation () =
  (* A tiny segment limit: the log must rotate (snapshot into the next
     segment, delete the old ones) and still recover the full state. *)
  let dir = temp_dir () in
  let w, _ = wal_open ~dir ~me:3 ~segment_limit:256 () in
  Wal.append w (Wal.Install (View.make ~id:2 ~members:[ 0; 3 ]));
  for sn = 1 to 200 do
    Wal.append w (Wal.Floor { sender = 0; sn })
  done;
  Alcotest.(check bool)
    (Printf.sprintf "rotated (segment %d)" (Wal.current_segment w))
    true
    (Wal.current_segment w > 0);
  Wal.close w;
  Alcotest.(check int) "old segments deleted" 1 (segment_count dir);
  let w2, r = wal_open ~dir ~me:3 () in
  Wal.close w2;
  Alcotest.(check (list (pair int int))) "floors survive rotation" [ (0, 200) ] r.Wal.floors;
  (match r.Wal.view with
  | Some v -> Alcotest.(check int) "view survives rotation" 2 v.View.id
  | None -> Alcotest.fail "view lost in rotation");
  Alcotest.(check bool) "log stays small" true
    ((Unix.stat (last_segment dir)).Unix.st_size < 1024)

let test_wal_identity_mismatch () =
  (* Two nodes sharing a data dir is a deployment error, never a
     silent state mixup. *)
  let dir = temp_dir () in
  let w, _ = wal_open ~dir ~me:1 () in
  Wal.append_durable w (Wal.Lease { next_sn = 5 });
  Wal.close w;
  (match Wal.open_ ~dir ~me:2 () with
  | Error (Wal.Foreign_log { owner; me; _ }) ->
      Alcotest.(check int) "names the owner" 1 owner;
      Alcotest.(check int) "names the refused node" 2 me;
      Alcotest.(check bool)
        "message mentions both ids" true
        (let msg = Wal.open_error_message (Wal.Foreign_log { dir; owner; me }) in
         Astring.String.is_infix ~affix:"node 1" msg
         && Astring.String.is_infix ~affix:"node 2" msg)
  | Ok (w2, _) ->
      Wal.close w2;
      Alcotest.fail "opened another node's log without complaint");
  (* [open_exn] (what [Node.create] uses) surfaces the same condition
     as a typed exception, not a bare [Failure]. *)
  match Wal.open_exn ~dir ~me:2 () with
  | exception Wal.Open_error (Wal.Foreign_log _) -> ()
  | w2, _ ->
      Wal.close w2;
      Alcotest.fail "open_exn accepted another node's log"

let test_wal_group_commit_crash () =
  (* A crash between an append and the commit tick loses at most the
     in-memory tail: everything synced stays, the un-synced appends
     vanish cleanly, and a tail that partially reached the disk is
     chopped like any torn write. *)
  let dir = temp_dir () in
  let w, _ = wal_open ~dir ~me:4 () in
  Wal.append w (Wal.Install (View.make ~id:2 ~members:[ 0; 4 ]));
  Wal.append w (Wal.Floor { sender = 0; sn = 3 });
  Wal.sync w;
  Wal.append w (Wal.Floor { sender = 0; sn = 8 });
  Wal.append w (Wal.Lease { next_sn = 100 });
  Alcotest.(check bool) "appends ride the tail" true (Wal.pending_bytes w > 0);
  Wal.abandon w;
  let w2, r = wal_open ~dir ~me:4 () in
  (match r.Wal.view with
  | Some v -> Alcotest.(check int) "synced view survives" 2 v.View.id
  | None -> Alcotest.fail "synced view lost");
  Alcotest.(check (list (pair int int))) "synced floor survives" [ (0, 3) ] r.Wal.floors;
  Alcotest.(check int) "un-synced lease lost" 0 r.Wal.next_sn;
  Alcotest.(check int) "clean cut, nothing to chop" 0 r.Wal.truncated;
  (* The survivor is a working log. *)
  Wal.append_durable w2 (Wal.Lease { next_sn = 7 });
  Wal.abandon w2;
  (* Crash again, this time with a partial frame on disk (the kernel
     got half the tail before the power went). *)
  let fd = Unix.openfile (last_segment dir) [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  let torn = Bytes.of_string "\x00\x00\x00\x40ab" in
  ignore (Unix.write fd torn 0 (Bytes.length torn));
  Unix.close fd;
  let w3, r3 = wal_open ~dir ~me:4 () in
  Wal.close w3;
  Alcotest.(check int) "torn tail chopped" (Bytes.length torn) r3.Wal.truncated;
  Alcotest.(check int) "durable lease survives both crashes" 7 r3.Wal.next_sn;
  Alcotest.(check (list (pair int int))) "floors intact" [ (0, 3) ] r3.Wal.floors

let test_wal_floors_coalesce () =
  (* Delivery floors are noted in memory: however many deliveries a
     sender gets between two syncs, the sync writes one Floor. *)
  let dir = temp_dir () in
  let reg = Svs_telemetry.Metrics.create () in
  let w, _ = Wal.open_exn ~dir ~me:6 ~metrics:reg () in
  let appends () =
    Svs_telemetry.Metrics.counter_value reg ~labels:[ ("node", "6") ] "wal_appends_total"
  in
  Wal.sync w;
  let before = appends () in
  for sn = 0 to 999 do
    Wal.note_floor w ~sender:1 ~sn
  done;
  Alcotest.(check int) "noting appends nothing" before (appends ());
  Wal.sync w;
  Alcotest.(check int) "one Floor per sync" (before + 1) (appends ());
  Wal.sync w;
  Alcotest.(check int) "an unchanged floor is not rewritten" (before + 1) (appends ());
  Wal.note_floor w ~sender:1 ~sn:500;
  Wal.sync w;
  Alcotest.(check int) "a lower floor is not rewritten" (before + 1) (appends ());
  Wal.close w

let test_wal_noted_floor_recovery () =
  (* close and an explicit sync each make the last noted floor
     durable; a crash before the tick recovers a floor between the
     last synced one and the last noted one — never above what was
     delivered. *)
  let dir = temp_dir () in
  let w, _ = wal_open ~dir ~me:8 () in
  Wal.note_floor w ~sender:0 ~sn:41;
  Wal.note_floor w ~sender:2 ~sn:7;
  Wal.close w;
  let w, r = wal_open ~dir ~me:8 () in
  Alcotest.(check (list (pair int int))) "close writes the noted floors" [ (0, 41); (2, 7) ]
    (List.sort compare r.Wal.floors);
  Wal.note_floor w ~sender:0 ~sn:60;
  Wal.sync w;
  Wal.abandon w;
  let w, r = wal_open ~dir ~me:8 () in
  Alcotest.(check (list (pair int int))) "sync writes the noted floor" [ (0, 60); (2, 7) ]
    (List.sort compare r.Wal.floors);
  for sn = 61 to 90 do
    Wal.note_floor w ~sender:0 ~sn
  done;
  Wal.abandon w;
  let w, r = wal_open ~dir ~me:8 () in
  Wal.close w;
  let floor = List.assoc 0 r.Wal.floors in
  Alcotest.(check bool)
    (Printf.sprintf "crash recovers a floor in [60, 90] (got %d)" floor)
    true
    (floor >= 60 && floor <= 90)

(* --- Node: a live three-member group over loopback --- *)

let fast_heartbeats =
  {
    Svs_detector.Heartbeat.period = 0.04;
    initial_timeout = 0.3;
    timeout_increment = 0.2;
    max_timeout = 2.0;
  }

let node_config = { Node.default_config with heartbeat = fast_heartbeats }

(* A group of [n] nodes in one loop; each consumes at its own period
   (pull-based, so unconsumed messages stay purgeable), appending every
   delivery to its log. *)
let make_group ?(config = node_config) ?consume_periods loop n =
  let listeners =
    List.init n (fun i ->
        let fd, addr = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
        (i, fd, addr))
  in
  let peers = List.map (fun (i, _, addr) -> (i, addr)) listeners in
  let deliveries = Array.make n [] in
  let nodes =
    List.map
      (fun (i, fd, _) ->
        Node.create loop ~me:i ~listen_fd:fd ~peers ~payload_codec:Wire_codec.int_codec
          ~config ())
      listeners
  in
  let nodes = Array.of_list nodes in
  Array.iteri
    (fun i node ->
      let period =
        match consume_periods with
        | Some periods -> List.nth periods i
        | None -> 0.005
      in
      let batch = if period <= 0.005 then 64 else 1 in
      ignore
        (Loop.every loop ~period (fun () ->
             let rec go k =
               if k > 0 then
                 match Node.deliver node with
                 | None -> ()
                 | Some d ->
                     deliveries.(i) <- d :: deliveries.(i);
                     go (k - 1)
             in
             go batch;
             true)
          : Loop.timer))
    nodes;
  (nodes, deliveries)

(* A shut-down node leaves nothing on the loop's engine. Node 2 stops
   first while its peers run on: past its longest timer period it can
   be collected. Once all three have stopped, the engine holds exactly
   what it held before they were created (here, one unrelated timer).
   Every member timer is armed, each with a period of at most 0.2 s. *)
let test_loop_node_timers_end () =
  let loop = Loop.create () in
  let engine = Loop.engine loop in
  ignore (Loop.every loop ~period:60.0 (fun () -> true) : Loop.timer);
  let before = Svs_sim.Engine.pending engine in
  let config =
    {
      node_config with
      stability_period = Some 0.2;
      park_timeout = Some 0.8;
      divergence_period = Some 0.2;
      slow_member = { Node.report_after = 0.8; evict_after = None };
    }
  in
  let listeners =
    List.init 3 (fun i ->
        let fd, addr = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
        (i, fd, addr))
  in
  let peers = List.map (fun (i, _, addr) -> (i, addr)) listeners in
  let create (i, fd, _) =
    Node.create loop ~me:i ~listen_fd:fd ~peers ~payload_codec:Wire_codec.int_codec ~config ()
  in
  let survivors = List.map create (List.filteri (fun i _ -> i < 2) listeners) in
  let released = Weak.create 1 in
  Weak.set released 0 (Some (create (List.nth listeners 2)));
  Loop.run ~timeout:0.5 loop;
  Alcotest.(check bool) "the nodes armed timers" true (Svs_sim.Engine.pending engine > before);
  Option.iter Node.shutdown (Weak.get released 0);
  Loop.run ~timeout:0.4 loop;
  Gc.full_major ();
  Alcotest.(check bool) "shut-down node released" false (Weak.check released 0);
  List.iter Node.shutdown survivors;
  Loop.run ~timeout:0.4 loop;
  Alcotest.(check int) "pending events" before (Svs_sim.Engine.pending engine)

let data_payloads ds =
  List.filter_map
    (function Types.Data d -> Some d.Types.payload | Types.View_change _ -> None)
    (List.rev ds)

let test_node_group_multicast () =
  let loop = Loop.create () in
  let nodes, deliveries = make_group loop 3 in
  (* Give the mesh a moment to connect, then publish. *)
  ignore
    (Loop.after loop ~delay:0.3 (fun () ->
         for i = 1 to 10 do
           ignore (Node.multicast nodes.(0) i)
         done));
  let all_in () =
    Array.for_all (fun ds -> List.length (data_payloads ds) >= 10) deliveries
  in
  Loop.run ~until:all_in ~timeout:10.0 loop;
  Array.iteri
    (fun i ds ->
      Alcotest.(check (list int))
        (Printf.sprintf "node %d delivered all in FIFO order" i)
        (List.init 10 (fun k -> k + 1))
        (data_payloads ds))
    deliveries;
  Array.iter Node.shutdown nodes

(* Floors go out on the engine tick after they rise: with the STABLE
   resend a minute away, a burst delivered everywhere (each node
   pulling on its own 5 ms timer) is trimmed everywhere within a few
   ticks, and an idle group then sends no STABLE at all. *)
let test_node_floors_on_tick () =
  let loop = Loop.create () in
  let config = { node_config with Node.stability_period = Some 60.0 } in
  let nodes, deliveries = make_group ~config loop 3 in
  let n = 200 in
  ignore
    (Loop.after loop ~delay:0.3 (fun () ->
         for i = 1 to n do
           ignore (Node.multicast nodes.(0) i)
         done));
  let all_delivered () =
    Array.for_all (fun ds -> List.length (data_payloads ds) >= n) deliveries
  in
  Loop.run ~until:all_delivered ~timeout:10.0 loop;
  Alcotest.(check bool) "burst delivered everywhere" true (all_delivered ());
  let delivered_at = Loop.now loop in
  let all_trimmed () = Array.for_all (fun node -> Node.stable_trimmed node >= n) nodes in
  Loop.run ~until:all_trimmed ~timeout:5.0 loop;
  let lag = Loop.now loop -. delivered_at in
  Array.iteri
    (fun i node ->
      Alcotest.(check int) (Printf.sprintf "node %d trimmed the burst" i) n
        (Node.stable_trimmed node))
    nodes;
  Alcotest.(check bool) (Printf.sprintf "trimmed %.3f s after delivery (budget 0.25)" lag) true
    (lag <= 0.25);
  let rounds () = Array.fold_left (fun acc node -> acc + Node.stable_rounds node) 0 nodes in
  let before = rounds () in
  Loop.run ~timeout:0.5 loop;
  Alcotest.(check int) "an idle group sends no STABLE" before (rounds ());
  Array.iter Node.shutdown nodes

let test_node_group_view_change_on_crash () =
  let loop = Loop.create () in
  let nodes, deliveries = make_group loop 3 in
  ignore
    (Loop.after loop ~delay:0.3 (fun () -> ignore (Node.multicast nodes.(0) 1)));
  (* Crash node 2 once traffic has flowed. *)
  ignore (Loop.after loop ~delay:0.6 (fun () -> Node.shutdown nodes.(2)));
  let reconfigured () =
    (View.mem 2 (Node.view nodes.(0)) = false)
    && (View.mem 2 (Node.view nodes.(1)) = false)
  in
  Loop.run ~until:reconfigured ~timeout:15.0 loop;
  (* Consume whatever is still queued so the markers reach the app. *)
  Array.iteri
    (fun i node ->
      List.iter (fun d -> deliveries.(i) <- d :: deliveries.(i)) (Node.deliver_all node))
    nodes;
  Alcotest.(check bool) "node 0 left view 0" true ((Node.view nodes.(0)).View.id >= 1);
  Alcotest.(check bool) "membership agrees" true
    (View.equal (Node.view nodes.(0)) (Node.view nodes.(1)));
  Alcotest.(check (list int)) "survivors" [ 0; 1 ] (Node.view nodes.(0)).View.members;
  (* The view-change marker reached the applications. *)
  let saw_view i =
    List.exists
      (function Types.View_change v -> v.View.id >= 1 | Types.Data _ -> false)
      deliveries.(i)
  in
  Alcotest.(check bool) "marker at node 0" true (saw_view 0);
  Alcotest.(check bool) "marker at node 1" true (saw_view 1);
  Array.iter Node.shutdown nodes

let test_node_park_probe_rejoin () =
  (* Quorum loss: two of three members die, so the survivor's exclusion
     view change can never assemble a majority. On the park deadline it
     must park and turn straight into a probing joiner. *)
  let loop = Loop.create () in
  let config = { node_config with Node.park_timeout = Some 0.5 } in
  let nodes, _ = make_group ~config loop 3 in
  ignore
    (Loop.after loop ~delay:0.3 (fun () ->
         Node.shutdown nodes.(1);
         Node.shutdown nodes.(2)));
  (* Suspicion needs the 0.3 s initial heartbeat timeout, then the
     0.5 s deadline runs; allow a few watchdog periods of slack. *)
  let parked_joining () =
    Node.parked nodes.(0) && Node.status_label nodes.(0) = "joining"
  in
  Loop.run ~until:parked_joining ~timeout:4.0 loop;
  Alcotest.(check bool) "survivor parked" true (Node.parked nodes.(0));
  Alcotest.(check string) "probing as a joiner" "joining" (Node.status_label nodes.(0));
  Alcotest.(check bool) "no longer a member" false (Node.is_member nodes.(0));
  Array.iter Node.shutdown nodes

let test_node_purging_over_tcp () =
  (* Node 2 consumes slowly while 50 updates of one hot item arrive:
     its protocol queue purges stale values, so it reaches the final
     value having delivered far fewer than 50 messages. *)
  let loop = Loop.create () in
  let nodes, deliveries =
    make_group ~consume_periods:[ 0.002; 0.002; 0.08 ] loop 3
  in
  ignore
    (Loop.after loop ~delay:0.3 (fun () ->
         for i = 1 to 50 do
           ignore (Node.multicast nodes.(0) ~ann:(Annotation.Tag 7) i)
         done));
  let got_final () =
    Array.for_all
      (fun ds -> match data_payloads ds with [] -> false | l -> List.mem 50 l)
      deliveries
  in
  Loop.run ~until:got_final ~timeout:15.0 loop;
  Array.iteri
    (fun i ds ->
      let got = data_payloads ds in
      Alcotest.(check bool) (Printf.sprintf "node %d got the final value" i) true
        (List.mem 50 got);
      Alcotest.(check bool) "in order" true (List.sort compare got = got))
    deliveries;
  let slow_got = List.length (data_payloads deliveries.(2)) in
  Alcotest.(check bool)
    (Printf.sprintf "slow node skipped stale values (delivered %d, purged %d)" slow_got
       (Node.purged nodes.(2)))
    true
    (Node.purged nodes.(2) > 0 && slow_got < 50);
  Array.iter Node.shutdown nodes

let test_mesh_no_silent_reconnect () =
  (* A peer that crashes must NOT silently get a resumed stream (bytes
     in flight were lost; the reliable-FIFO contract is gone): once the
     break surfaces, the peer is written off. A *new incarnation*
     dialing in with a fresh hello is forgiven — it gets a brand-new
     stream, never a replay of the dropped frames. *)
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let fd1, addr1 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let peers = [ (0, addr0); (1, addr1) ] in
  let got = ref [] in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers ~on_frame:(fun ~src:_ _ -> ()) ()
  in
  let mesh1 =
    Tcp_mesh.create loop ~me:1 ~listen_fd:fd1 ~peers
      ~on_frame:(fun ~src frame -> got := (src, str frame) :: !got)
      ()
  in
  Tcp_mesh.send mesh0 ~dst:1 "before";
  Loop.run ~until:(fun () -> !got <> []) ~timeout:5.0 loop;
  Alcotest.(check int) "first frame arrived" 1 (List.length !got);
  (* Peer 1 crashes. The sender keeps talking; the first failed write
     surfaces the broken stream and writes the peer off. *)
  Tcp_mesh.close mesh1;
  ignore
    (Loop.every loop ~period:0.02 (fun () ->
         Tcp_mesh.send mesh0 ~dst:1 "during";
         true));
  Loop.run ~until:(fun () -> Tcp_mesh.written_off mesh0 ~dst:1) ~timeout:5.0 loop;
  Alcotest.(check bool) "written off after the break" true
    (Tcp_mesh.written_off mesh0 ~dst:1);
  Alcotest.(check int) "nothing silently resumed" 1 (List.length !got);
  Alcotest.(check (list int)) "not connected" [] (Tcp_mesh.connected mesh0);
  Alcotest.(check int) "nothing buffered for the dead incarnation" 0
    (Tcp_mesh.pending_bytes mesh0 ~dst:1);
  (* A new incarnation restarts on the same address and dials us: its
     hello forgives the write-off and opens a fresh stream. *)
  let got_b = ref [] in
  let fd1b, _ = Tcp_mesh.listener addr1 in
  let mesh1b =
    Tcp_mesh.create loop ~me:1 ~listen_fd:fd1b ~peers
      ~on_frame:(fun ~src frame -> got_b := (src, str frame) :: !got_b)
      ()
  in
  Loop.run ~until:(fun () -> !got_b <> []) ~timeout:5.0 loop;
  Alcotest.(check int) "forgiveness counted" 1 (Tcp_mesh.writeoff_resets mesh0);
  Alcotest.(check bool) "fresh stream carries only new traffic" true
    (List.for_all (fun (src, f) -> src = 0 && f = "during") !got_b);
  Alcotest.(check bool) "dropped frames were not replayed" false
    (List.exists (fun (_, f) -> f = "before") !got_b);
  Tcp_mesh.close mesh0;
  Tcp_mesh.close mesh1b

let test_mesh_forget_peer_redials () =
  (* Written off by the dial cap; the membership layer later readmits
     the peer: forget_peer restores the budget and a fresh stream comes
     up. *)
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let fd1_tmp, addr1 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  Unix.close fd1_tmp;
  let peers = [ (0, addr0); (1, addr1) ] in
  let dial =
    {
      Tcp_mesh.base_delay = 0.01;
      max_delay = 0.05;
      multiplier = 2.0;
      jitter = 0.2;
      max_attempts = Some 2;
    }
  in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers ~on_frame:(fun ~src:_ _ -> ())
      ~dial ()
  in
  Tcp_mesh.send mesh0 ~dst:1 "doomed";
  Loop.run ~until:(fun () -> Tcp_mesh.written_off mesh0 ~dst:1) ~timeout:5.0 loop;
  Alcotest.(check bool) "written off" true (Tcp_mesh.written_off mesh0 ~dst:1);
  (* Peer 1 comes up at the promised address; nothing happens until the
     membership layer forgives it. *)
  let fd1, _ = Tcp_mesh.listener addr1 in
  Tcp_mesh.forget_peer mesh0 ~dst:1;
  Tcp_mesh.send mesh0 ~dst:1 "fresh";
  let got = ref [] in
  let mesh1 =
    Tcp_mesh.create loop ~me:1 ~listen_fd:fd1 ~peers
      ~on_frame:(fun ~src frame -> got := (src, str frame) :: !got)
      ()
  in
  Loop.run ~until:(fun () -> !got <> []) ~timeout:5.0 loop;
  Alcotest.(check (list (pair int string))) "fresh frame arrived" [ (0, "fresh") ] !got;
  Alcotest.(check int) "reset counted" 1 (Tcp_mesh.writeoff_resets mesh0);
  Alcotest.(check bool) "no longer written off" false (Tcp_mesh.written_off mesh0 ~dst:1);
  Tcp_mesh.close mesh0;
  Tcp_mesh.close mesh1

let test_mesh_nodelay () =
  (* Every link a mesh writes to is Nagle-free: a sub-segment batch
     must not wait on the peer's delayed ACK. That holds for the first
     dial and for the redial after a write-off is forgiven. *)
  let loop = Loop.create () in
  let listeners = List.init 3 (fun _ -> Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0))) in
  let peers = List.mapi (fun i (_, addr) -> (i, addr)) listeners in
  let mesh i fd =
    Tcp_mesh.create loop ~me:i ~listen_fd:fd ~peers ~on_frame:(fun ~src:_ _ -> ()) ()
  in
  let meshes = Array.of_list (List.mapi (fun i (fd, _) -> mesh i fd) listeners) in
  let all_up m =
    List.for_all (fun (p : Tcp_mesh.peer_stat) -> p.Tcp_mesh.up) (Tcp_mesh.peer_stats m)
  in
  let check_nodelay label m =
    List.iter
      (fun (p : Tcp_mesh.peer_stat) ->
        if p.Tcp_mesh.up then
          Alcotest.(check bool)
            (Printf.sprintf "%s: link to %d has TCP_NODELAY" label p.Tcp_mesh.peer)
            true p.Tcp_mesh.nodelay)
      (Tcp_mesh.peer_stats m)
  in
  Loop.run ~until:(fun () -> Array.for_all all_up meshes) ~timeout:5.0 loop;
  Alcotest.(check bool) "mesh up" true (Array.for_all all_up meshes);
  Array.iteri (fun i m -> check_nodelay (Printf.sprintf "node %d" i) m) meshes;
  (* Node 2 crashes; node 0 writes it off on the first failed write. *)
  Tcp_mesh.close meshes.(2);
  ignore
    (Loop.every loop ~period:0.02 (fun () ->
         Tcp_mesh.send meshes.(0) ~dst:2 "ping";
         not (Tcp_mesh.written_off meshes.(0) ~dst:2)));
  Loop.run ~until:(fun () -> Tcp_mesh.written_off meshes.(0) ~dst:2) ~timeout:5.0 loop;
  Alcotest.(check bool) "written off" true (Tcp_mesh.written_off meshes.(0) ~dst:2);
  let down = List.find (fun (p : Tcp_mesh.peer_stat) -> p.Tcp_mesh.peer = 2) in
  Alcotest.(check bool) "a down link reports no NODELAY" false
    (down (Tcp_mesh.peer_stats meshes.(0))).Tcp_mesh.nodelay;
  (* Its new incarnation dials in; the hello makes node 0 forget the
     write-off and redial. *)
  let fd2, _ = Tcp_mesh.listener (List.assoc 2 peers) in
  let m2 = mesh 2 fd2 in
  let redialled () = (down (Tcp_mesh.peer_stats meshes.(0))).Tcp_mesh.up in
  Loop.run ~until:(fun () -> redialled () && all_up m2) ~timeout:5.0 loop;
  Alcotest.(check bool) "redialled" true (redialled ());
  Alcotest.(check int) "through forget_peer" 1 (Tcp_mesh.writeoff_resets meshes.(0));
  check_nodelay "node 0 after redial" meshes.(0);
  check_nodelay "restarted node 2" m2;
  Tcp_mesh.close meshes.(0);
  Tcp_mesh.close meshes.(1);
  Tcp_mesh.close m2

let test_node_restart_rejoins () =
  (* The full recovery loop, live over TCP: a durable node crashes, the
     survivors exclude it, it restarts from its WAL at the same address,
     rejoins via JOIN/SYNC with a sponsor snapshot, and delivers only
     post-crash traffic (Integrity across the restart). *)
  let loop = Loop.create () in
  let dir = temp_dir () in
  let n = 3 in
  let listeners =
    List.init n (fun i ->
        let fd, addr = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
        (i, fd, addr))
  in
  let peers = List.map (fun (i, _, addr) -> (i, addr)) listeners in
  let deliveries = Array.make n [] in
  let consume i node =
    ignore
      (Loop.every loop ~period:0.005 (fun () ->
           List.iter (fun d -> deliveries.(i) <- d :: deliveries.(i)) (Node.deliver_all node);
           true)
        : Loop.timer)
  in
  let nodes =
    Array.of_list
      (List.map
         (fun (i, fd, _) ->
           let data_dir = if i = 2 then Some dir else None in
           let node =
             Node.create loop ~me:i ~listen_fd:fd ~peers
               ~payload_codec:Wire_codec.int_codec ~config:node_config
               ~state_transfer:(fun () -> Some "app-snapshot")
               ?data_dir ()
           in
           consume i node;
           node)
         listeners)
  in
  ignore
    (Loop.after loop ~delay:0.3 (fun () ->
         for i = 1 to 10 do
           ignore (Node.multicast nodes.(0) i)
         done));
  let all_in () =
    Array.for_all (fun ds -> List.length (data_payloads ds) >= 10) deliveries
  in
  Loop.run ~until:all_in ~timeout:10.0 loop;
  Alcotest.(check (list int)) "first incarnation delivered 1..10"
    (List.init 10 (fun k -> k + 1))
    (data_payloads deliveries.(2));
  (* Crash node 2; the survivors reconfigure it away. *)
  Node.shutdown nodes.(2);
  let excluded () =
    (not (View.mem 2 (Node.view nodes.(0)))) && not (View.mem 2 (Node.view nodes.(1)))
  in
  Loop.run ~until:excluded ~timeout:15.0 loop;
  (* Restart from the same data dir at the same address: the node comes
     back as a joiner, recovers its delivery floors from the WAL, and
     nags the survivors until it is readmitted. *)
  let _, _, addr2 = List.nth listeners 2 in
  let fd2b, _ = Tcp_mesh.listener addr2 in
  let synced = ref None in
  let node2b =
    Node.create loop ~me:2 ~listen_fd:fd2b ~peers ~payload_codec:Wire_codec.int_codec
      ~config:node_config ~data_dir:dir
      ~on_synced:(fun v app -> synced := Some (v, app))
      ()
  in
  Alcotest.(check bool) "restarted incarnation is a joiner" true (Node.is_joining node2b);
  deliveries.(2) <- [];
  consume 2 node2b;
  let readmitted () =
    Node.is_member node2b
    && View.mem 2 (Node.view nodes.(0))
    && View.mem 2 (Node.view nodes.(1))
  in
  Loop.run ~until:readmitted ~timeout:20.0 loop;
  (match !synced with
  | Some (v, app) ->
      Alcotest.(check bool)
        (Printf.sprintf "re-entered in a later view (%d)" v.View.id)
        true (v.View.id >= 2);
      Alcotest.(check (option string)) "sponsor snapshot arrived" (Some "app-snapshot") app
  | None -> Alcotest.fail "on_synced never fired");
  (* New traffic reaches the rejoined member — and nothing from before
     the crash is delivered twice. *)
  let published = ref 0 in
  ignore
    (Loop.every loop ~period:0.02 (fun () ->
         (if !published < 5 then
            match Node.multicast nodes.(0) (11 + !published) with
            | Ok _ -> incr published
            | Error _ -> ());
         !published < 5));
  Loop.run
    ~until:(fun () -> List.length (data_payloads deliveries.(2)) >= 5)
    ~timeout:10.0 loop;
  Alcotest.(check (list int)) "second incarnation delivers only post-crash traffic"
    [ 11; 12; 13; 14; 15 ]
    (data_payloads deliveries.(2));
  Node.shutdown node2b;
  Node.shutdown nodes.(0);
  Node.shutdown nodes.(1)

(* Slow-member escalation: a member that stops reading while
   unsheddable (Unrelated) traffic floods in pins the publisher's link
   over the hard watermark. The staged policy first reports the
   laggard, then force-suspects it, and the healthy majority evicts it
   through the ordinary view-change path. The detector timeouts are
   set far beyond the test horizon so the only route to the view
   change is the escalation itself (the paused victim would otherwise
   suspect everyone first — it stops reading heartbeats too). *)
let test_node_slow_member_escalation () =
  let loop = Loop.create () in
  let listeners =
    List.init 3 (fun i ->
        let fd, addr = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
        (i, fd, addr))
  in
  let peers = List.map (fun (i, _, addr) -> (i, addr)) listeners in
  let config =
    {
      node_config with
      Node.heartbeat =
        {
          Svs_detector.Heartbeat.period = 0.05;
          initial_timeout = 60.0;
          timeout_increment = 1.0;
          max_timeout = 120.0;
        };
      backpressure =
        {
          Tcp_mesh.default_backpressure with
          soft = 16 * 1024;
          hard = 64 * 1024;
          resume = 8 * 1024;
        };
      slow_member = { Node.report_after = 0.25; evict_after = Some 1.0 };
      (* The eviction's PRED exchange echoes the whole jammed backlog
         (stability is pinned by the victim), so the healthy members
         swap multi-megabyte flush frames here. *)
      max_frame = 64 * 1024 * 1024;
    }
  in
  let nodes =
    List.map
      (fun (i, fd, _) ->
        Node.create loop ~me:i ~listen_fd:fd ~peers
          ~payload_codec:Wire_codec.string_codec ~config ())
      listeners
    |> Array.of_list
  in
  (* Healthy members consume; the victim (2) will stop reading. *)
  Array.iteri
    (fun i node ->
      if i < 2 then
        ignore
          (Loop.every loop ~period:0.005 (fun () ->
               ignore (Node.deliver_all node);
               true)
            : Loop.timer))
    nodes;
  (* Sized so the flood jams the victim's link far past [hard] even
     after the kernel's socket buffers absorb their share. *)
  let sent = ref 0 in
  let payload = String.make 32_768 'p' in
  ignore
    (Loop.after loop ~delay:0.3 (fun () ->
         Node.pause_reads nodes.(2);
         ignore
           (Loop.every loop ~period:0.002 (fun () ->
                (* Unchecked flood: Unrelated payloads are never
                   sheddable, so the victim's link can only grow. *)
                for _ = 1 to 4 do
                  ignore (Node.multicast nodes.(0) payload)
                done;
                sent := !sent + 4;
                !sent < 400)
             : Loop.timer)));
  let evicted () =
    (not (View.mem 2 (Node.view nodes.(0)))) && not (View.mem 2 (Node.view nodes.(1)))
  in
  Loop.run ~until:evicted ~timeout:30.0 loop;
  Alcotest.(check bool) "victim evicted" true (evicted ());
  Alcotest.(check (list int)) "survivors" [ 0; 1 ]
    (Node.view nodes.(0)).View.members;
  Alcotest.(check bool) "laggard was reported first" true (Node.slow_reports nodes.(0) >= 1);
  Alcotest.(check int) "nothing sheddable was shed" 0 (Node.shed_frames nodes.(0));
  Array.iter Node.shutdown nodes

(* --- Admin endpoint --- *)

module Admin = Svs_rt.Admin
module Metrics = Svs_telemetry.Metrics

(* A loop-driven HTTP client: the server's accept/handle path runs on
   the same loop, so the whole request round-trips single-threaded. *)
let http_get loop port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: test\r\n\r\n" path in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 1024 in
  let closed = ref false in
  Loop.on_readable loop fd (fun () ->
      let chunk = Bytes.create 4096 in
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 ->
          closed := true;
          Loop.remove_fd loop fd;
          Unix.close fd
      | n -> Buffer.add_subbytes buf chunk 0 n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
  Loop.run ~until:(fun () -> !closed) ~timeout:5.0 loop;
  Buffer.contents buf

let contains haystack needle = Astring.String.is_infix ~affix:needle haystack

let test_admin_routes () =
  let loop = Loop.create () in
  let metrics = Metrics.create () in
  Metrics.Counter.add (Metrics.counter metrics ~labels:[ ("node", "0") ] "requests_total") 2;
  let admin =
    Admin.create loop
      ~addr:(Unix.ADDR_INET (loopback, 0))
      [
        ("/metrics", fun () -> Admin.prometheus (Metrics.prometheus_string metrics));
        ("/status", fun () -> Admin.json {|{"ok":true}|});
        ("/health", fun () -> Admin.text "ok\n");
        ("/boom", fun () -> failwith "kaboom");
      ]
  in
  let port = Admin.port admin in
  Alcotest.(check bool) "ephemeral port bound" true (port > 0);
  let metrics_resp = http_get loop port "/metrics" in
  Alcotest.(check bool) "200" true (contains metrics_resp "HTTP/1.0 200 OK");
  Alcotest.(check bool) "prometheus content type" true
    (contains metrics_resp "text/plain; version=0.0.4");
  Alcotest.(check bool) "TYPE line served" true
    (contains metrics_resp "# TYPE requests_total counter");
  Alcotest.(check bool) "sample served" true
    (contains metrics_resp "requests_total{node=\"0\"} 2");
  let status_resp = http_get loop port "/status?pretty=1" in
  Alcotest.(check bool) "json content type (query stripped)" true
    (contains status_resp "application/json");
  Alcotest.(check bool) "json body" true (contains status_resp {|{"ok":true}|});
  Alcotest.(check bool) "health ok" true (contains (http_get loop port "/health") "ok");
  let missing = http_get loop port "/nope" in
  Alcotest.(check bool) "404 with route list" true
    (contains missing "404" && contains missing "/metrics");
  Alcotest.(check bool) "handler exception answers 503" true
    (contains (http_get loop port "/boom") "HTTP/1.0 503");
  (* A live registry is re-rendered per request. *)
  Metrics.Counter.incr (Metrics.counter metrics ~labels:[ ("node", "0") ] "requests_total");
  Alcotest.(check bool) "fresh render" true
    (contains (http_get loop port "/metrics") "requests_total{node=\"0\"} 3");
  Admin.close admin

let test_admin_node_status () =
  (* A real node's /status payload: well-formed enough to grep the
     fields an operator keys on. *)
  let loop = Loop.create () in
  let nodes, _deliveries = make_group loop 3 in
  ignore
    (Loop.after loop ~delay:0.3 (fun () ->
         for i = 1 to 5 do
           ignore (Node.multicast nodes.(0) i)
         done));
  Loop.run ~until:(fun () -> Array.for_all (fun n -> Node.pending n = 0) nodes
                             && Node.bytes_in nodes.(1) > 0)
    ~timeout:5.0 loop;
  let s = Node.status_json nodes.(0) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "status has %s" needle) true (contains s needle))
    [
      {|"node":0|};
      {|"status":"member"|};
      {|"view":{"id":0,"members":[0,1,2]}|};
      {|"floors":|};
      {|"wal":null|};
      {|"peers":[{"peer":1,"up":true,"nodelay":true|};
    ];
  Alcotest.(check string) "label" "member" (Node.status_label nodes.(0));
  Alcotest.(check (option int)) "no wal" None (Node.wal_segment nodes.(0));
  Array.iter Node.shutdown nodes

(* --- Hostile inputs: salvage, quarantine, divergence, rude HTTP --- *)

(* Flip one payload byte of outer frame [index] in a WAL segment
   (frame 0 is the identity stamp, frame 1 the first record, ...). *)
let wal_flip_frame path ~index =
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
  Bytes.set b target (Char.chr (Char.code (Bytes.get b target) lxor 0x55));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_wal_salvage_interior () =
  (* Bit rot in the middle of the log: the salvage scan must skip the
     damaged record, keep everything after it, quarantine the bytes in
     a [.corrupt] sidecar, and leave a clean log behind. *)
  let dir = temp_dir () in
  let w, _ = wal_open ~dir ~me:6 () in
  Wal.append w (Wal.Install (View.make ~id:4 ~members:[ 0; 6 ]));
  Wal.append w (Wal.Floor { sender = 0; sn = 5 });
  Wal.append w (Wal.Floor { sender = 6; sn = 9 });
  Wal.append_durable w (Wal.Lease { next_sn = 50 });
  Wal.close w;
  wal_flip_frame (last_segment dir) ~index:2;
  let w2, r = wal_open ~dir ~me:6 () in
  Wal.close w2;
  Alcotest.(check bool) "one region skipped" true (r.Wal.skipped >= 1);
  Alcotest.(check bool) "recovery tainted" true r.Wal.tainted;
  (match r.Wal.view with
  | Some v -> Alcotest.(check int) "view before the damage survives" 4 v.View.id
  | None -> Alcotest.fail "view lost to an unrelated corruption");
  Alcotest.(check bool) "damaged floor rejected" true (not (List.mem_assoc 0 r.Wal.floors));
  Alcotest.(check (list (pair int int)))
    "records after the damage survive" [ (6, 9) ] r.Wal.floors;
  Alcotest.(check int) "lease after the damage survives" 50 r.Wal.next_sn;
  let sidecars =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".corrupt")
  in
  Alcotest.(check bool) "corrupt bytes kept in a sidecar" true (sidecars <> []);
  (* The salvage rewrite leaves a clean log behind: a second recovery
     skips and chops nothing and agrees on the state. *)
  let w3, r3 = wal_open ~dir ~me:6 () in
  Wal.close w3;
  Alcotest.(check int) "second recovery skips nothing" 0 r3.Wal.skipped;
  Alcotest.(check int) "second recovery chops nothing" 0 r3.Wal.truncated;
  Alcotest.(check bool) "second recovery untainted" false r3.Wal.tainted;
  Alcotest.(check int) "state agrees after the rewrite" 50 r3.Wal.next_sn

let test_mesh_quarantine_and_forgiveness () =
  (* Misbehavior escalation: enough garbage quarantines the peer, the
     cooldown forgives it, and traffic flows again afterwards. *)
  let loop = Loop.create () in
  let fd0, addr0 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let fd1, addr1 = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
  let peers = [ (0, addr0); (1, addr1) ] in
  let got0 = ref 0 in
  let hostile =
    { Tcp_mesh.reset_score = 2.0; quarantine_score = 3.0; forgive_after = 0.4; decay = 0.0 }
  in
  let mesh0 =
    Tcp_mesh.create loop ~me:0 ~listen_fd:fd0 ~peers
      ~on_frame:(fun ~src:_ _ -> incr got0)
      ~hostile ()
  in
  let mesh1 =
    Tcp_mesh.create loop ~me:1 ~listen_fd:fd1 ~peers ~on_frame:(fun ~src:_ _ -> ()) ()
  in
  Tcp_mesh.send mesh1 ~dst:0 "before";
  Loop.run ~until:(fun () -> !got0 >= 1) ~timeout:5.0 loop;
  Alcotest.(check int) "honest traffic first" 1 !got0;
  for _ = 1 to 3 do
    Tcp_mesh.note_misbehavior mesh0 ~src:1 ~reason:"test-garbage"
  done;
  Alcotest.(check bool) "peer quarantined" true (Tcp_mesh.quarantined mesh0 ~peer:1);
  Alcotest.(check int) "counted once" 1 (Tcp_mesh.quarantined_total mesh0);
  (* mesh1 keeps sending throughout (real peers have heartbeats): its
     writes on the torn link fail and write the peer off during the
     sentence, and mesh0's fresh hello at forgiveness time revives it
     — after which 1 -> 0 flows again. *)
  let resend =
    Loop.every loop ~period:0.02 (fun () ->
        Tcp_mesh.send mesh1 ~dst:0 "after";
        true)
  in
  Loop.run ~until:(fun () -> not (Tcp_mesh.quarantined mesh0 ~peer:1)) ~timeout:5.0 loop;
  Alcotest.(check bool) "forgiven after the cooldown" true
    (not (Tcp_mesh.quarantined mesh0 ~peer:1));
  Loop.run ~until:(fun () -> !got0 >= 2) ~timeout:10.0 loop;
  Loop.cancel resend;
  Alcotest.(check bool) "traffic flows again" true (!got0 >= 2);
  Alcotest.(check int) "still one quarantine event" 1 (Tcp_mesh.quarantined_total mesh0);
  Tcp_mesh.close mesh0;
  Tcp_mesh.close mesh1

let test_node_divergence_self_heals () =
  (* A node whose replicated state silently diverges convicts itself
     via digest gossip, self-demotes to joiner, and rejoins healed by
     the sponsor's state transfer (modelled by [on_synced] resetting
     the digest). *)
  let loop = Loop.create () in
  let listeners =
    List.init 3 (fun i ->
        let fd, addr = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
        (i, fd, addr))
  in
  let peers = List.map (fun (i, _, addr) -> (i, addr)) listeners in
  let digests = Array.make 3 1 in
  let config = { node_config with Node.divergence_period = Some 0.1 } in
  let nodes =
    List.map
      (fun (i, fd, _) ->
        Node.create loop ~me:i ~listen_fd:fd ~peers ~payload_codec:Wire_codec.int_codec
          ~config
          ~state_digest:(fun () -> digests.(i))
          ~on_synced:(fun _ _ -> digests.(i) <- 1)
          ())
      listeners
    |> Array.of_list
  in
  Array.iter
    (fun node ->
      ignore
        (Loop.every loop ~period:0.005 (fun () ->
             let rec drain () =
               match Node.deliver node with None -> () | Some _ -> drain ()
             in
             drain ();
             true)))
    nodes;
  let full_view () =
    Array.for_all (fun nd -> (Node.view nd).View.members = [ 0; 1; 2 ]) nodes
  in
  Loop.run ~until:full_view ~timeout:10.0 loop;
  Alcotest.(check bool) "group formed" true (full_view ());
  digests.(2) <- 42;
  Loop.run ~until:(fun () -> Node.divergences nodes.(2) >= 1) ~timeout:20.0 loop;
  Alcotest.(check bool) "node 2 convicted itself" true (Node.divergences nodes.(2) >= 1);
  Alcotest.(check int) "the honest majority never convicts" 0
    (Node.divergences nodes.(0) + Node.divergences nodes.(1));
  Loop.run
    ~until:(fun () -> digests.(2) = 1 && Node.is_member nodes.(2) && full_view ())
    ~timeout:30.0 loop;
  Alcotest.(check bool) "state healed by the sync" true (digests.(2) = 1);
  Alcotest.(check bool) "readmitted" true (Node.is_member nodes.(2));
  Alcotest.(check bool) "full view restored" true (full_view ());
  Array.iter Node.shutdown nodes

let test_admin_hostile_clients () =
  (* Malformed HTTP must never wedge the accept loop: an oversized
     request line is answered from what was buffered and cut, binary
     garbage gets a 405, and a half-open connection parks harmlessly
     while other requests keep being served. *)
  let loop = Loop.create () in
  let admin =
    Admin.create loop
      ~addr:(Unix.ADDR_INET (loopback, 0))
      [ ("/health", fun () -> Admin.text "ok\n") ]
  in
  let port = Admin.port admin in
  let raw_request payload =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (loopback, port));
    ignore (Unix.write_substring fd payload 0 (String.length payload));
    let buf = Buffer.create 256 in
    let closed = ref false in
    let finish fd =
      closed := true;
      Loop.remove_fd loop fd;
      try Unix.close fd with Unix.Unix_error (_, _, _) -> ()
    in
    Loop.on_readable loop fd (fun () ->
        let chunk = Bytes.create 4096 in
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> finish fd
        | n -> Buffer.add_subbytes buf chunk 0 n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error (_, _, _) -> finish fd);
    Loop.run ~until:(fun () -> !closed) ~timeout:5.0 loop;
    Buffer.contents buf
  in
  (* (a) A request line far past the header cap. The server answers
     from the 16 KiB it buffered and resets; the response can be lost
     to the reset, so the hard assertion is that the endpoint still
     works afterwards. *)
  let huge = "GET /" ^ String.make (24 * 1024) 'a' ^ " HTTP/1.0\r\n\r\n" in
  let resp = raw_request huge in
  Alcotest.(check bool) "oversized line: cut or answered" true
    (resp = "" || contains resp "HTTP/1.0");
  Alcotest.(check bool) "alive after header bomb" true
    (contains (http_get loop port "/health") "HTTP/1.0 200 OK");
  (* (b) Binary garbage that still contains the header-ending blank
     line: rejected with 405, connection closed cleanly. *)
  let garbage = "\x00\xff\x01\x02 binary rubbish \x7f\r\n\r\n" in
  Alcotest.(check bool) "binary garbage answered 405" true
    (contains (raw_request garbage) "HTTP/1.0 405");
  (* (c) Half-open connections: clients that send part of a request
     and stall must not block other requests. *)
  let half_open =
    List.init 3 (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (loopback, port));
        ignore (Unix.write_substring fd "GET /hea" 0 8);
        fd)
  in
  Loop.run ~timeout:0.1 loop;
  Alcotest.(check bool) "served past half-open clients" true
    (contains (http_get loop port "/health") "HTTP/1.0 200 OK");
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ()) half_open;
  Admin.close admin

let () =
  Alcotest.run "svs_rt"
    [
      ( "loop",
        [
          Alcotest.test_case "after ordering" `Quick test_loop_after_ordering;
          Alcotest.test_case "every + cancel" `Quick test_loop_every_and_cancel;
          Alcotest.test_case "every stops on false" `Quick test_loop_every_stops_on_false;
          Alcotest.test_case "readable fd" `Quick test_loop_readable_fd;
          Alcotest.test_case "until predicate" `Quick test_loop_until_predicate;
          Alcotest.test_case "before-wait hooks" `Quick test_loop_before_wait_hooks;
          Alcotest.test_case "every after a stall" `Quick test_loop_every_after_stall;
          Alcotest.test_case "idle timers allocate nothing" `Quick test_loop_idle_timer_words;
          Alcotest.test_case "node timers end at shutdown" `Quick test_loop_node_timers_end;
        ] );
      ( "tcp-mesh",
        [
          Alcotest.test_case "exchange" `Quick test_mesh_exchange;
          Alcotest.test_case "large frame" `Quick test_mesh_large_frame;
          Alcotest.test_case "flush before the wait" `Quick test_mesh_flushes_before_wait;
          Alcotest.test_case "queue until connected" `Quick test_mesh_queues_until_connected;
          Alcotest.test_case "no silent reconnect" `Quick test_mesh_no_silent_reconnect;
          Alcotest.test_case "unknown destination drop" `Quick test_mesh_unknown_dst_drop;
          Alcotest.test_case "oversize frame resets link" `Quick test_mesh_oversize_resets_link;
          Alcotest.test_case "dial backoff" `Quick test_mesh_dial_backoff;
          Alcotest.test_case "dial cap writes off" `Quick test_mesh_dial_cap_writes_off;
          Alcotest.test_case "forget peer redials" `Quick test_mesh_forget_peer_redials;
          Alcotest.test_case "TCP_NODELAY on every write socket" `Quick test_mesh_nodelay;
          Alcotest.test_case "quarantine and forgiveness" `Quick
            test_mesh_quarantine_and_forgiveness;
          QCheck_alcotest.to_alcotest torn_batch_property;
          Alcotest.test_case "shed obsolete queued frames" `Quick
            test_mesh_shed_obsolete_frames;
          Alcotest.test_case "shed frames free their bytes" `Quick test_mesh_shed_frees_bytes;
          Alcotest.test_case "no-shed keeps whole chain" `Quick test_mesh_no_shed_keeps_chain;
        ] );
      ("iobuf", [ Alcotest.test_case "burst shrink" `Quick test_iobuf_shrink ]);
      ( "wal",
        [
          Alcotest.test_case "round trip" `Quick test_wal_round_trip;
          Alcotest.test_case "torn tail truncated" `Quick test_wal_torn_tail;
          Alcotest.test_case "bad CRC stops replay" `Quick test_wal_bad_crc;
          Alcotest.test_case "rotation" `Quick test_wal_rotation;
          Alcotest.test_case "identity mismatch" `Quick test_wal_identity_mismatch;
          Alcotest.test_case "group-commit crash" `Quick test_wal_group_commit_crash;
          Alcotest.test_case "floors coalesce per sync" `Quick test_wal_floors_coalesce;
          Alcotest.test_case "noted floor recovery" `Quick test_wal_noted_floor_recovery;
          Alcotest.test_case "salvage interior corruption" `Quick test_wal_salvage_interior;
        ] );
      ( "admin",
        [
          Alcotest.test_case "routes" `Quick test_admin_routes;
          Alcotest.test_case "node status json" `Slow test_admin_node_status;
          Alcotest.test_case "hostile clients" `Quick test_admin_hostile_clients;
        ] );
      ( "node",
        [
          Alcotest.test_case "group multicast" `Slow test_node_group_multicast;
          Alcotest.test_case "floors go out on the tick" `Slow test_node_floors_on_tick;
          Alcotest.test_case "view change on crash" `Slow test_node_group_view_change_on_crash;
          Alcotest.test_case "purging over TCP" `Slow test_node_purging_over_tcp;
          Alcotest.test_case "park and probe-rejoin" `Slow test_node_park_probe_rejoin;
          Alcotest.test_case "restart rejoins from WAL" `Slow test_node_restart_rejoins;
          Alcotest.test_case "divergence self-heals" `Slow test_node_divergence_self_heals;
          Alcotest.test_case "slow member escalation" `Slow test_node_slow_member_escalation;
        ] );
    ]
