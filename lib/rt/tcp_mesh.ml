module Metrics = Svs_telemetry.Metrics
module Trace = Svs_telemetry.Trace
module Codec = Svs_codec.Codec
module Shed = Svs_obs.Shed

let frame_header_bytes = 4

(* Inbound reassembly: splits a byte stream into outer frames without
   materializing a string per frame. Bytes accumulate in a reusable
   Iobuf; [next] hands out a borrowed slice over the backing buffer,
   valid until the next [feed]/[read_from_fd]. *)
module Assembler = struct
  type t = { buf : Iobuf.t; max_frame : int }

  type result = Frame of Codec.Slice.t | Await | Oversize of int

  let create ?(max_frame = max_int) () = { buf = Iobuf.create ~capacity:16384 (); max_frame }

  let feed t data = Iobuf.add_string t.buf data

  let read_from_fd t fd =
    let n = Iobuf.read_from_fd t.buf fd in
    n

  let buffered t = Iobuf.length t.buf

  let next t =
    let available = Iobuf.length t.buf in
    if available < frame_header_bytes then Await
    else begin
      let b = Iobuf.unsafe_bytes t.buf and s = Iobuf.start t.buf in
      let n =
        (Char.code (Bytes.get b s) lsl 24)
        lor (Char.code (Bytes.get b (s + 1)) lsl 16)
        lor (Char.code (Bytes.get b (s + 2)) lsl 8)
        lor Char.code (Bytes.get b (s + 3))
      in
      if n > t.max_frame then Oversize n
      else if available < frame_header_bytes + n then Await
      else begin
        let slice = Codec.Slice.make b ~off:(s + frame_header_bytes) ~len:n in
        (* Consuming only advances the head pointer; the bytes under
           the slice stay put until the next feed compacts. *)
        Iobuf.consume t.buf (frame_header_bytes + n);
        Frame slice
      end
    end
end

(* Inner frames of a batch payload: [varint length][bytes], packed
   back to back. Raises [Codec.Truncated]/[Codec.Malformed] on a
   payload that is not a well-formed batch. *)
let iter_batch slice f =
  let r = Codec.Reader.of_slice slice in
  while not (Codec.Reader.eof r) do
    let len = Codec.Reader.varint r in
    f (Codec.Reader.slice r len)
  done

type dial_policy = {
  base_delay : float;
  max_delay : float;
  multiplier : float;
  jitter : float;
  max_attempts : int option;
}

let default_dial_policy =
  { base_delay = 0.05; max_delay = 2.0; multiplier = 2.0; jitter = 0.2; max_attempts = None }

(* Hostile-input escalation: every decode failure attributed to a peer
   bumps a leaky-bucket score; crossing [reset_score] tears the peer's
   inbound links down (a fresh stream clears framing desync), crossing
   [quarantine_score] writes the peer off entirely until the cooldown
   expires. Honest peers on a flaky network produce isolated failures
   that the decay forgives; only a stream of garbage escalates. *)
type hostile_policy = {
  reset_score : float;
  quarantine_score : float;
  forgive_after : float;
  decay : float;
}

let default_hostile_policy =
  { reset_score = 3.0; quarantine_score = 8.0; forgive_after = 5.0; decay = 1.0 }

(* Flow control for the per-peer outbound queues. Below [soft] the
   zero-copy fast path runs untouched (frames coalesce straight into
   the open batch). Crossing [soft] switches the peer to an overflow
   queue of individually retained frames where semantic shedding can
   purge obsolete queued-but-unsent traffic (see {!Svs_obs.Shed} for
   the prefix-safe suffix rule). [hard] is the admission-control line:
   {!would_block} turns true and the slow-member escalation clock
   starts. [budget] bounds the whole mesh's pending bytes; [resume] is
   the drain level at which a peer leaves overflow mode (hysteresis so
   a queue hovering at [soft] doesn't flap). *)
type backpressure_policy = {
  soft : int;
  hard : int;
  resume : int;
  budget : int;
  shed : bool;
}

let default_backpressure =
  {
    soft = 256 * 1024;
    hard = 2 * 1024 * 1024;
    resume = 64 * 1024;
    budget = 32 * 1024 * 1024;
    shed = true;
  }

type offender = {
  mutable score : float;
  mutable last : float; (* when [score] last decayed *)
  mutable quarantined_until : float; (* 0. = not quarantined *)
}

(* One frame parked in the overflow queue: materialized (the batch
   fast path is zero-copy, but a frame that may sit — or be shed —
   needs its own bytes), with the shedding metadata the sender
   attached. [fshed] frames stay in place as tombstones so the cover
   relation can chain through them; [sent] frames have moved to the
   kernel-bound batch and are immutable from here on. *)
type oframe = {
  mutable bytes : string; (* [""] once shed: the walk reads only [fmeta] *)
  fmeta : Shed.key option;
  mutable fshed : bool;
  mutable sent : bool;
}

type outgoing = {
  dst : int;
  addr : Unix.sockaddr;
  mutable fd : Unix.file_descr option;
  mutable nodelay : bool; (* TCP_NODELAY as read back from [fd] at dial *)
  mutable broken : bool;
      (* An established connection that failed, or a peer past the dial
         cap. The paper's system model gives reliable FIFO channels
         between correct processes; once a stream breaks, bytes already
         handed to the kernel may be lost, so silently reconnecting
         would violate FIFO reliability. Crash-stop semantics apply
         instead: the peer is written off (heartbeats stop, suspicion
         and the view change machinery take over). *)
  mutable dial_failed : bool; (* at least one failed dial so far *)
  mutable attempts : int; (* consecutive failed dials *)
  mutable delay : float; (* current backoff delay *)
  mutable next_dial : float; (* wall-clock time before which we hold off *)
  out : Iobuf.t; (* sealed outer frames not yet handed to the kernel *)
  batch : Buffer.t; (* inner frames of the open (unsealed) batch *)
  mutable batch_frames : int; (* inner frames in [batch] *)
  mutable queued_frames : int;
      (* Frames queued since the buffer was last known drained. Exact
         whenever nothing has been partially written — in particular on
         the dial-cap write-off path, where no byte ever reached the
         kernel — which is the only place it is read. *)
  mutable bp : bool; (* overflow (backpressure) mode *)
  overflow : oframe Queue.t; (* oldest-first; frames not yet batched *)
  mutable recent : oframe list;
      (* Newest-first mirror of the overflow's data frames, for the
         backward shed walk. Pruned of [sent] frames after each drain
         and capped, so the walk is amortized O(1) per enqueue. *)
  mutable recent_len : int;
  mutable overflow_bytes : int; (* live (unshed, unsent) payload bytes *)
  mutable shed_frames : int; (* total frames shed on this link *)
  mutable over_hard_since : float; (* 0. = currently under [hard] *)
}

type incoming = {
  fd : Unix.file_descr;
  asm : Assembler.t;
  mutable peer : int option; (* learned from the hello frame *)
}

type t = {
  loop : Loop.t;
  me : int;
  listen_fd : Unix.file_descr;
  outgoing : (int * outgoing) list;
  mutable incoming : incoming list;
  on_frame : src:int -> Codec.Slice.t -> unit;
  mutable closed : bool;
  tracer : Trace.t;
  dial : dial_policy;
  hostile : hostile_policy;
  offenders : (int, offender) Hashtbl.t;
  max_frame : int;
  watermark : int; (* seal the open batch at this many payload bytes *)
  bp_policy : backpressure_policy;
  scratch : Buffer.t; (* materializes one frame on the overflow path *)
  mutable reads_paused : bool;
  mutable over_budget : bool;
  mutable jitter_state : int64;
  c_bytes_out : Metrics.Counter.t;
  c_bytes_in : Metrics.Counter.t;
  c_reconnects : Metrics.Counter.t;
  c_frames_dropped : Metrics.Counter.t;
  c_frames_oversize : Metrics.Counter.t;
  c_writeoff_resets : Metrics.Counter.t;
  c_flushes : Metrics.Counter.t;
  c_writev_bytes : Metrics.Counter.t;
  c_quarantined : Metrics.Counter.t;
  c_bp_soft : Metrics.Counter.t;
  c_bp_hard : Metrics.Counter.t;
  c_bp_budget : Metrics.Counter.t;
  c_shed_frames : Metrics.Counter.t;
  c_shed_bytes : Metrics.Counter.t;
  h_batch_frames : Metrics.Histogram.t;
}

let listener addr =
  let domain = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd addr;
  Unix.listen fd 16;
  (fd, Unix.getsockname fd)

(* The hello is the one frame that is not a batch: the first outer
   frame on a connection carries the dialer's id, raw. *)
let hello_frame me =
  let payload = string_of_int me in
  let n = String.length payload in
  let b = Bytes.create (frame_header_bytes + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xFF);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xFF);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 3 (n land 0xFF);
  Bytes.blit_string payload 0 b frame_header_bytes n;
  Bytes.to_string b

(* Top-level rather than a local loop over [buf], which would allocate
   a closure on every frame. *)
let rec add_varint buf v =
  if v < 0x80 then Buffer.add_char buf (Char.chr v)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7F)));
    add_varint buf (v lsr 7)
  end

let varint_size v =
  let rec go v acc = if v < 0x80 then acc else go (v lsr 7) (acc + 1) in
  go v 1

(* Deterministic jitter (xorshift64), seeded from the node id: dial
   retries across a mesh restart don't synchronise into thundering
   herds, yet a run is still reproducible. *)
let jitter_factor t =
  let s = t.jitter_state in
  let s = Int64.logxor s (Int64.shift_left s 13) in
  let s = Int64.logxor s (Int64.shift_right_logical s 7) in
  let s = Int64.logxor s (Int64.shift_left s 17) in
  t.jitter_state <- s;
  let unit =
    Int64.to_float (Int64.shift_right_logical s 11) /. 9007199254740992.0 (* 2^53 *)
  in
  1.0 +. (t.dial.jitter *. ((2.0 *. unit) -. 1.0))

let emit_drop t ~peer ~reason =
  Metrics.Counter.incr t.c_frames_dropped;
  if Trace.enabled t.tracer then
    Trace.emit t.tracer (Trace.TcpDrop { node = t.me; peer; reason })

let peer_pending (out : outgoing) =
  Iobuf.length out.out
  + (if out.batch_frames > 0 then frame_header_bytes + Buffer.length out.batch else 0)
  + out.overflow_bytes

(* Frames that never reached the kernel: batched + live overflow. *)
let live_frames (out : outgoing) =
  out.queued_frames
  + Queue.fold (fun acc f -> if f.fshed || f.sent then acc else acc + 1) 0 out.overflow

let clear_queued (out : outgoing) =
  Iobuf.clear out.out;
  Buffer.clear out.batch;
  out.batch_frames <- 0;
  out.queued_frames <- 0;
  Queue.clear out.overflow;
  out.recent <- [];
  out.recent_len <- 0;
  out.overflow_bytes <- 0;
  out.bp <- false;
  out.over_hard_since <- 0.0

let emit_backpressure t (out : outgoing) ~stage =
  if Trace.enabled t.tracer then
    Trace.emit t.tracer
      (Trace.Backpressure
         { node = t.me; peer = out.dst; stage; pending = peer_pending out })

(* Track the hard-watermark boundary on every pending-size change:
   the slow-member escalation clock is "continuously over [hard]". *)
let update_hard t (out : outgoing) =
  let pending = peer_pending out in
  if pending >= t.bp_policy.hard then begin
    if out.over_hard_since = 0.0 then begin
      out.over_hard_since <- Loop.now t.loop;
      Metrics.Counter.incr t.c_bp_hard;
      emit_backpressure t out ~stage:"hard"
    end
  end
  else if out.over_hard_since > 0.0 then out.over_hard_since <- 0.0

(* Give up on an unreachable peer: crash-stop semantics, queued frames
   are dropped (and counted — they were promised to no one). *)
let write_off_unreachable t (out : outgoing) =
  out.broken <- true;
  let dropped = live_frames out in
  clear_queued out;
  Metrics.Counter.add t.c_frames_dropped dropped;
  if Trace.enabled t.tracer then
    Trace.emit t.tracer (Trace.TcpDrop { node = t.me; peer = out.dst; reason = "dial-cap" })

(* Close the open batch: prefix it with the outer length header and
   move it onto the kernel-bound queue. *)
let seal t (out : outgoing) =
  if out.batch_frames > 0 then begin
    Metrics.Histogram.observe t.h_batch_frames (float_of_int out.batch_frames);
    Iobuf.add_be32 out.out (Buffer.length out.batch);
    Iobuf.add_buffer out.out out.batch;
    Buffer.clear out.batch;
    out.batch_frames <- 0
  end

(* Seal, then push as much of the pending output as the kernel will
   take — one write syscall straight from the queue's backing bytes.
   In overflow mode, a fully drained kernel queue pulls the next
   batch's worth of live frames out of the overflow queue and goes
   again, until either the kernel pushes back or the overflow drains
   under the resume watermark. *)
let rec flush_outgoing t (out : outgoing) =
  seal t out;
  match out.fd with
  | None -> ()
  | Some fd ->
      (if not (Iobuf.is_empty out.out) then
         match Iobuf.write_to_fd out.out fd with
         | written ->
             Metrics.Counter.incr t.c_flushes;
             Metrics.Counter.add t.c_bytes_out written;
             Metrics.Counter.add t.c_writev_bytes written;
             if Iobuf.is_empty out.out then out.queued_frames <- 0
         | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
         | exception Unix.Unix_error (_, _, _) ->
             (* Established connection lost: write the peer off. *)
             (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
             out.fd <- None;
             out.broken <- true;
             clear_queued out;
             if Trace.enabled t.tracer then
               Trace.emit t.tracer
                 (Trace.TcpDrop { node = t.me; peer = out.dst; reason = "stream-broken" }));
      if out.bp then drain_overflow t out

and drain_overflow t (out : outgoing) =
  if out.fd <> None && Iobuf.is_empty out.out && not (Queue.is_empty out.overflow) then begin
    let moved = ref false in
    while
      (not (Queue.is_empty out.overflow)) && Buffer.length out.batch < t.watermark
    do
      let f = Queue.pop out.overflow in
      if not f.fshed then begin
        f.sent <- true;
        moved := true;
        out.overflow_bytes <- out.overflow_bytes - String.length f.bytes;
        add_varint out.batch (String.length f.bytes);
        Buffer.add_string out.batch f.bytes;
        out.batch_frames <- out.batch_frames + 1;
        out.queued_frames <- out.queued_frames + 1
      end
    done;
    (* Frames marked [sent] (and everything older — the drain is FIFO)
       can no longer be shed: drop them off the walk mirror. *)
    if !moved then begin
      let rec keep = function
        | f :: rest when not f.sent -> f :: keep rest
        | _ -> []
      in
      out.recent <- keep out.recent;
      out.recent_len <- List.length out.recent;
      flush_outgoing t out
    end
  end
  else if
    out.bp && Queue.is_empty out.overflow && peer_pending out <= t.bp_policy.resume
  then begin
    out.bp <- false;
    out.recent <- [];
    out.recent_len <- 0;
    out.over_hard_since <- 0.0;
    emit_backpressure t out ~stage:"resume"
  end

(* Top-level, so the per-iteration flush allocates no closure. *)
let rec flush_links t = function
  | [] -> ()
  | (_, out) :: rest ->
      flush_outgoing t out;
      flush_links t rest

let try_dial t (out : outgoing) =
  if
    (not t.closed) && out.fd = None && (not out.broken)
    && Loop.now t.loop >= out.next_dial
  then begin
    let domain = Unix.domain_of_sockaddr out.addr in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd out.addr with
    | () ->
        Unix.set_nonblock fd;
        (* This is the only socket the mesh writes to. Batching is the
           loop iteration's and the watermark's job; Nagle would hold a
           sub-segment batch back until the peer's delayed ACK. *)
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        out.nodelay <- Unix.getsockopt fd Unix.TCP_NODELAY;
        out.fd <- Some fd;
        out.attempts <- 0;
        out.delay <- t.dial.base_delay;
        out.next_dial <- 0.0;
        (* A link that comes up after failed attempts: the peer was
           unreachable at first and is now connected. *)
        if out.dial_failed then begin
          out.dial_failed <- false;
          Metrics.Counter.incr t.c_reconnects;
          if Trace.enabled t.tracer then
            Trace.emit t.tracer (Trace.TcpReconnect { node = t.me; peer = out.dst })
        end;
        (* Hello frame first, then any queued traffic. *)
        Iobuf.prepend_string out.out (hello_frame t.me);
        flush_outgoing t out
    | exception Unix.Unix_error (_, _, _) ->
        (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
        out.dial_failed <- true;
        out.attempts <- out.attempts + 1;
        (match t.dial.max_attempts with
        | Some cap when out.attempts >= cap -> write_off_unreachable t out
        | _ ->
            (* Exponential backoff with jitter before the next dial. *)
            out.next_dial <- Loop.now t.loop +. (out.delay *. jitter_factor t);
            out.delay <- Float.min t.dial.max_delay (out.delay *. t.dial.multiplier))
  end

(* Forgive a written-off peer and restore its full dial budget. The
   old stream's lost bytes belong to the previous incarnation of the
   link — by the time this is called the peer has either been excluded
   (and the view machinery accounted for the loss) or demonstrably
   restarted — so a fresh stream is sound again. *)
let forget_peer t ~dst =
  if not t.closed then
    match List.assoc_opt dst t.outgoing with
    | None -> ()
    | Some (out : outgoing) ->
        if out.broken then begin
          out.broken <- false;
          (* Queued frames were already dropped (and counted) at
             write-off time; the new stream starts clean. *)
          clear_queued out;
          Metrics.Counter.incr t.c_writeoff_resets
        end;
        out.dial_failed <- false;
        out.attempts <- 0;
        out.delay <- t.dial.base_delay;
        out.next_dial <- 0.0;
        if out.fd = None then try_dial t out

let drop_incoming t inc =
  Loop.remove_fd t.loop inc.fd;
  (try Unix.close inc.fd with Unix.Unix_error (_, _, _) -> ());
  t.incoming <- List.filter (fun other -> other != inc) t.incoming

(* --- Hostile-peer scoring --- *)

let offender t ~peer =
  match Hashtbl.find_opt t.offenders peer with
  | Some o -> o
  | None ->
      let o = { score = 0.0; last = Loop.now t.loop; quarantined_until = 0.0 } in
      Hashtbl.add t.offenders peer o;
      o

let decay_score t (o : offender) =
  let now = Loop.now t.loop in
  if now > o.last then begin
    o.score <- Float.max 0.0 (o.score -. ((now -. o.last) *. t.hostile.decay));
    o.last <- now
  end

let quarantined t ~peer =
  match Hashtbl.find_opt t.offenders peer with
  | Some o -> o.quarantined_until > Loop.now t.loop
  | None -> false

(* Tear down every inbound link attributed to [peer]: a fresh stream
   is the only way out of framing desync, and a hostile peer loses its
   foothold. *)
let reset_links_from t ~peer =
  List.iter
    (fun inc -> if inc.peer = Some peer then drop_incoming t inc)
    (List.filter (fun inc -> inc.peer = Some peer) t.incoming)

let quarantine_peer t ~peer (o : offender) =
  o.quarantined_until <- Loop.now t.loop +. t.hostile.forgive_after;
  Metrics.Counter.incr t.c_quarantined;
  if Trace.enabled t.tracer then
    Trace.emit t.tracer
      (Trace.Quarantine { node = t.me; peer; score = int_of_float (Float.round o.score) });
  reset_links_from t ~peer;
  (* Write the outgoing side off too (when the peer is in the mesh):
     frames towards a quarantined peer can only feed it more state to
     corrupt. *)
  match List.assoc_opt peer t.outgoing with
  | Some (out : outgoing) when not out.broken ->
      (match out.fd with
      | Some fd ->
          Loop.remove_fd t.loop fd;
          (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
          out.fd <- None
      | None -> ());
      out.broken <- true;
      let dropped = live_frames out in
      clear_queued out;
      Metrics.Counter.add t.c_frames_dropped dropped
  | _ -> ()

let bump_misbehavior t ~peer =
  if peer >= 0 && peer <> t.me then begin
    let o = offender t ~peer in
    decay_score t o;
    o.score <- o.score +. 1.0;
    (* Already quarantined: the score keeps climbing but the sentence
       is already being served. *)
    if o.quarantined_until <= Loop.now t.loop then
      if o.score >= t.hostile.quarantine_score then quarantine_peer t ~peer o
      else if o.score >= t.hostile.reset_score then reset_links_from t ~peer
  end

let note_misbehavior t ~src ~reason =
  if not t.closed then begin
    emit_drop t ~peer:src ~reason;
    bump_misbehavior t ~peer:src
  end

(* Auto-forgiveness: a quarantined peer whose cooldown expired gets a
   clean slate (and, when it is a mesh peer, its link dialed back). *)
let forgive_expired t =
  let now = Loop.now t.loop in
  let expired =
    Hashtbl.fold
      (fun peer (o : offender) acc ->
        if o.quarantined_until > 0.0 && now >= o.quarantined_until then peer :: acc else acc)
      t.offenders []
  in
  List.iter
    (fun peer ->
      let o = Hashtbl.find t.offenders peer in
      o.quarantined_until <- 0.0;
      o.score <- 0.0;
      forget_peer t ~dst:peer)
    expired

(* Split complete outer frames out of an incoming stream and fan the
   inner frames to [on_frame]; resets the link (and stops) on an
   oversize frame, a malformed hello, or a payload that is not a
   well-formed batch. *)
let rec drain_frames t inc =
  match Assembler.next inc.asm with
  | Assembler.Await -> ()
  | Assembler.Oversize _ ->
      (* A frame we refuse to buffer: either a hostile/corrupt peer or
         a foreign protocol. Reset the link gracefully — the peer can
         reconnect with a fresh stream — rather than OOM on it. *)
      Metrics.Counter.incr t.c_frames_oversize;
      let peer = Option.value inc.peer ~default:(-1) in
      emit_drop t ~peer ~reason:"oversize";
      drop_incoming t inc;
      bump_misbehavior t ~peer
  | Assembler.Frame payload -> (
      match inc.peer with
      | None -> (
          match int_of_string_opt (Codec.Slice.to_string payload) with
          | Some peer when quarantined t ~peer ->
              (* Serving a sentence: reconnects are refused until the
                 cooldown expires and forgiveness dials back. *)
              emit_drop t ~peer ~reason:"quarantined";
              drop_incoming t inc
          | Some peer ->
              inc.peer <- Some peer;
              (* A fresh hello from a peer we had written off: it
                 demonstrably restarted, so dial its new incarnation
                 back instead of staying deaf forever. *)
              (match List.assoc_opt peer t.outgoing with
              | Some (out : outgoing) when out.broken -> forget_peer t ~dst:peer
              | _ -> ());
              drain_frames t inc
          | None ->
              (* First frame must be the dialer's id; anything else is
                 not this protocol. *)
              emit_drop t ~peer:(-1) ~reason:"bad-hello";
              drop_incoming t inc)
      | Some src -> (
          match
            iter_batch payload (fun inner -> if not t.closed then t.on_frame ~src inner)
          with
          | () -> drain_frames t inc
          | exception (Codec.Truncated | Codec.Malformed _) ->
              emit_drop t ~peer:src ~reason:"bad-batch";
              drop_incoming t inc;
              bump_misbehavior t ~peer:src))

let on_readable_incoming t inc () =
  match Assembler.read_from_fd inc.asm inc.fd with
  | 0 -> drop_incoming t inc
  | read ->
      Metrics.Counter.add t.c_bytes_in read;
      drain_frames t inc
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> drop_incoming t inc

let on_accept t () =
  match Unix.accept t.listen_fd with
  | fd, _ ->
      Unix.set_nonblock fd;
      (* Inner frames add at most a varint to the payload a peer was
         asked to carry, and sealed batches respect the (symmetric)
         watermark — so honest traffic stays within max_frame + 16. *)
      let asm = Assembler.create ~max_frame:(t.max_frame + 16) () in
      let inc = { fd; asm; peer = None } in
      t.incoming <- inc :: t.incoming;
      Loop.on_readable t.loop fd (on_readable_incoming t inc)
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> ()

let create loop ~me ~listen_fd ~peers ~on_frame ?(tracer = Trace.nop) ?metrics
    ?(dial = default_dial_policy) ?(hostile = default_hostile_policy)
    ?(backpressure = default_backpressure) ?(max_frame = 8 * 1024 * 1024) () =
  Unix.set_nonblock listen_fd;
  let outgoing =
    List.filter_map
      (fun (dst, addr) ->
        if dst = me then None
        else
          Some
            ( dst,
              {
                dst;
                addr;
                fd = None;
                nodelay = false;
                broken = false;
                dial_failed = false;
                attempts = 0;
                delay = dial.base_delay;
                next_dial = 0.0;
                out = Iobuf.create ~capacity:4096 ();
                batch = Buffer.create 4096;
                batch_frames = 0;
                queued_frames = 0;
                bp = false;
                overflow = Queue.create ();
                recent = [];
                recent_len = 0;
                overflow_bytes = 0;
                shed_frames = 0;
                over_hard_since = 0.0;
              } ))
      peers
  in
  let labels = [ ("node", string_of_int me) ] in
  let counter name =
    match metrics with
    | None -> Metrics.Counter.detached ()
    | Some reg -> Metrics.counter reg ~labels name
  in
  let histogram name =
    match metrics with
    | None -> Metrics.Histogram.detached ()
    | Some reg -> Metrics.histogram reg ~labels name
  in
  let t =
    {
      loop;
      me;
      listen_fd;
      outgoing;
      incoming = [];
      on_frame;
      closed = false;
      tracer;
      dial;
      hostile;
      offenders = Hashtbl.create 16;
      max_frame;
      watermark = min 65536 max_frame;
      bp_policy = backpressure;
      scratch = Buffer.create 512;
      reads_paused = false;
      over_budget = false;
      jitter_state = Int64.of_int ((me * 2654435761) lor 1);
      c_bytes_out = counter "tcp_bytes_out_total";
      c_bytes_in = counter "tcp_bytes_in_total";
      c_reconnects = counter "tcp_reconnects_total";
      c_frames_dropped = counter "tcp_frames_dropped_total";
      c_frames_oversize = counter "tcp_frames_oversize_total";
      c_writeoff_resets = counter "tcp_writeoff_resets_total";
      c_flushes = counter "tcp_flushes_total";
      c_writev_bytes = counter "tcp_writev_bytes_total";
      c_quarantined = counter "tcp_peer_quarantined_total";
      c_bp_soft = counter "tcp_backpressure_soft_total";
      c_bp_hard = counter "tcp_backpressure_hard_total";
      c_bp_budget = counter "tcp_backpressure_budget_total";
      c_shed_frames = counter "tcp_shed_frames_total";
      c_shed_bytes = counter "tcp_shed_bytes_total";
      h_batch_frames = histogram "tcp_batch_frames";
    }
  in
  Loop.on_readable loop listen_fd (on_accept t);
  List.iter (fun (_, out) -> try_dial t out) outgoing;
  ignore
    (Loop.every loop ~period:0.05 (fun () ->
         if not t.closed then begin
           forgive_expired t;
           List.iter
             (fun (_, (out : outgoing)) ->
               if out.fd = None then try_dial t out else flush_outgoing t out)
             t.outgoing
         end;
         not t.closed)
      : Loop.timer);
  (* A batch is what one loop iteration queued: flush every link when
     the loop is about to wait. *)
  Loop.before_wait loop (fun () ->
      if not t.closed then flush_links t t.outgoing;
      not t.closed);
  t

(* Append one inner frame to [dst]'s open batch. [len] is the payload
   size; [add buf src] writes exactly that many bytes of [src] to [buf]
   (a top-level function, so a send allocates no closure).
   Past the soft watermark the frame goes to the overflow queue
   instead, where the suffix-shed walk may purge the obsolete run of
   queued-but-unsent data frames the fresh one covers. *)
let enqueue t (out : outgoing) ?meta ~len add src =
  if out.bp || peer_pending out + len > t.bp_policy.soft then begin
    if not out.bp then begin
      out.bp <- true;
      Metrics.Counter.incr t.c_bp_soft;
      emit_backpressure t out ~stage:"soft"
    end;
    (match meta with
    | Some fresh when t.bp_policy.shed ->
        let victims =
          Shed.walk ~meta:(fun f -> f.fmeta) ~shed:(fun f -> f.fshed) ~fresh out.recent
        in
        List.iter
          (fun (f : oframe) ->
            f.fshed <- true;
            out.overflow_bytes <- out.overflow_bytes - String.length f.bytes;
            out.shed_frames <- out.shed_frames + 1;
            Metrics.Counter.incr t.c_shed_frames;
            Metrics.Counter.add t.c_shed_bytes (String.length f.bytes);
            f.bytes <- "";
            match f.fmeta with
            | Some k ->
                if Trace.enabled t.tracer then
                  Trace.emit t.tracer
                    (Trace.Shed
                       {
                         node = t.me;
                         peer = out.dst;
                         sender = k.Shed.id.Svs_obs.Msg_id.sender;
                         sn = k.Shed.id.Svs_obs.Msg_id.sn;
                       })
            | None -> ())
          victims
    | _ -> ());
    Buffer.clear t.scratch;
    add t.scratch src;
    let f =
      { bytes = Buffer.contents t.scratch; fmeta = meta; fshed = false; sent = false }
    in
    Queue.add f out.overflow;
    out.overflow_bytes <- out.overflow_bytes + len;
    (match meta with
    | Some _ ->
        out.recent <- f :: out.recent;
        out.recent_len <- out.recent_len + 1;
        if out.recent_len > 2 * Shed.max_walk then begin
          (* Cap the walk mirror; frames that fall off just become
             unsheddable (less shedding, never unsafe). *)
          let rec take n = function
            | x :: rest when n > 0 -> x :: take (n - 1) rest
            | _ -> []
          in
          out.recent <- take Shed.max_walk out.recent;
          out.recent_len <- Shed.max_walk
        end
    | None -> ());
    update_hard t out;
    let total = List.fold_left (fun acc (_, o) -> acc + peer_pending o) 0 t.outgoing in
    if total > t.bp_policy.budget then begin
      if not t.over_budget then begin
        t.over_budget <- true;
        Metrics.Counter.incr t.c_bp_budget;
        emit_backpressure t out ~stage:"budget"
      end
    end
    else t.over_budget <- false;
    if out.fd = None then try_dial t out
  end
  else begin
    (* Seal before adding when the frame would push the batch past the
       watermark: a sealed batch is at most [watermark] bytes unless a
       single frame alone exceeds it. *)
    if
      out.batch_frames > 0
      && Buffer.length out.batch + varint_size len + len > t.watermark
    then flush_outgoing t out;
    add_varint out.batch len;
    add out.batch src;
    out.batch_frames <- out.batch_frames + 1;
    out.queued_frames <- out.queued_frames + 1;
    if out.fd = None then try_dial t out;
    if Buffer.length out.batch >= t.watermark then flush_outgoing t out
  end

let send_from t ~dst ?meta ~len add src =
  if not t.closed then
    match List.assoc dst t.outgoing with
    | exception Not_found -> emit_drop t ~peer:dst ~reason:"unknown-dst"
    | (out : outgoing) when out.broken ->
        (* Buffering towards a written-off peer would grow without
           bound; the frame can never be delivered on this stream. *)
        emit_drop t ~peer:dst ~reason:"written-off"
    | out -> enqueue t out ?meta ~len add src

let send t ~dst ?meta payload =
  send_from t ~dst ?meta ~len:(String.length payload) Buffer.add_string payload

let add_writer batch w = Codec.Writer.add_to_buffer w batch

let send_writer t ~dst ?meta w =
  send_from t ~dst ?meta ~len:(Codec.Writer.length w) add_writer w

let flush t = if not t.closed then flush_links t t.outgoing

let bytes_out t = Metrics.Counter.value t.c_bytes_out

let bytes_in t = Metrics.Counter.value t.c_bytes_in

let frames_dropped t = Metrics.Counter.value t.c_frames_dropped

let frames_oversize t = Metrics.Counter.value t.c_frames_oversize

let writeoff_resets t = Metrics.Counter.value t.c_writeoff_resets

let dial_attempts t ~dst =
  match List.assoc_opt dst t.outgoing with None -> 0 | Some out -> out.attempts

let written_off t ~dst =
  match List.assoc_opt dst t.outgoing with None -> false | Some out -> out.broken

let connected t =
  List.filter_map
    (fun (dst, (out : outgoing)) -> if out.fd <> None then Some dst else None)
    t.outgoing

let pending_bytes t ~dst =
  match List.assoc_opt dst t.outgoing with None -> 0 | Some out -> peer_pending out

let total_pending t =
  List.fold_left (fun acc (_, out) -> acc + peer_pending out) 0 t.outgoing

(* Drop everything queued towards a peer the membership layer no
   longer counts — frames to a non-member are dead weight, and holding
   megabytes for a consumer that will never read again defeats the
   budget. The link itself stays configured (a future incarnation
   re-enters via JOIN/SYNC on a fresh stream). *)
let drop_pending t ~dst =
  match List.assoc_opt dst t.outgoing with
  | None -> 0
  | Some out ->
      let bytes = peer_pending out in
      if bytes > 0 then begin
        Metrics.Counter.add t.c_frames_dropped (live_frames out);
        if Trace.enabled t.tracer then
          Trace.emit t.tracer (Trace.TcpDrop { node = t.me; peer = dst; reason = "member-left" });
        clear_queued out
      end;
      bytes

(* Admission control: the application should stop multicasting when
   any live peer is over the hard watermark or the mesh is over its
   budget. Written-off peers don't count — their queues are already
   dropped and the view machinery is evicting them. *)
let would_block t =
  total_pending t >= t.bp_policy.budget
  || List.exists
       (fun (_, (out : outgoing)) ->
         (not out.broken) && peer_pending out >= t.bp_policy.hard)
       t.outgoing

let backpressure t = t.bp_policy

let shed_frames t = Metrics.Counter.value t.c_shed_frames

type bp_stage = Bp_normal | Bp_soft | Bp_hard

let stage_name = function Bp_normal -> "normal" | Bp_soft -> "soft" | Bp_hard -> "hard"

type peer_stat = {
  peer : int;
  up : bool;
  nodelay : bool;
  pending : int;
  attempts : int;
  written_off : bool;
  quarantined : bool;
  stage : bp_stage;
  shed : int;
  over_hard_s : float; (* continuously over [hard] for this long *)
}

let peer_stats t =
  let now = Loop.now t.loop in
  List.map
    (fun (dst, (out : outgoing)) ->
      {
        peer = dst;
        up = out.fd <> None;
        nodelay = out.fd <> None && out.nodelay;
        pending = peer_pending out;
        attempts = out.attempts;
        written_off = out.broken;
        quarantined = quarantined t ~peer:dst;
        stage =
          (if out.over_hard_since > 0.0 then Bp_hard
           else if out.bp then Bp_soft
           else Bp_normal);
        shed = out.shed_frames;
        over_hard_s = (if out.over_hard_since > 0.0 then now -. out.over_hard_since else 0.0);
      })
    t.outgoing
  |> List.sort (fun a b -> compare a.peer b.peer)

(* Receiver-side stall injection (benches and chaos tests): stop
   servicing inbound sockets — and the accept queue — so senders see a
   consumer that reads nothing, exactly like a wedged process. *)
let pause_reads t =
  if not (t.reads_paused || t.closed) then begin
    t.reads_paused <- true;
    Loop.remove_fd t.loop t.listen_fd;
    List.iter (fun inc -> Loop.remove_fd t.loop inc.fd) t.incoming
  end

let resume_reads t =
  if t.reads_paused && not t.closed then begin
    t.reads_paused <- false;
    Loop.on_readable t.loop t.listen_fd (fun () -> on_accept t ());
    List.iter (fun inc -> Loop.on_readable t.loop inc.fd (on_readable_incoming t inc)) t.incoming
  end

let quarantined_total t = Metrics.Counter.value t.c_quarantined

let close t =
  if not t.closed then begin
    (* Last chance for queued traffic before the sockets go away. *)
    List.iter (fun (_, out) -> flush_outgoing t out) t.outgoing;
    t.closed <- true;
    Loop.remove_fd t.loop t.listen_fd;
    (try Unix.close t.listen_fd with Unix.Unix_error (_, _, _) -> ());
    List.iter
      (fun (_, (out : outgoing)) ->
        match out.fd with
        | Some fd ->
            Loop.remove_fd t.loop fd;
            (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
            out.fd <- None
        | None -> ())
      t.outgoing;
    List.iter (fun inc -> drop_incoming t inc) t.incoming
  end
