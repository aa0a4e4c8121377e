(** Full-mesh TCP transport for group members.

    Each member listens on one address and dials every peer; the
    connection a node dials carries its outbound traffic, so each
    ordered pair of members has a dedicated FIFO byte stream — the
    reliable FIFO channel of the paper's system model (§3.1), for as
    long as both endpoints are up.

    {b Wire framing.} The stream is a sequence of outer frames, each a
    big-endian u32 length followed by that many payload bytes. The
    first outer frame on a connection is the hello (the dialer's id in
    decimal); every later outer frame is a {e batch}: inner frames
    packed back to back, each a varint length followed by its bytes.
    The frames one iteration of the {!Loop} queues for a peer coalesce
    into a single batch — one length prefix, one write syscall —
    instead of one syscall per message per peer: the mesh flushes
    every link from a {!Loop.before_wait} hook, just before the loop
    blocks. Inner frames are the unit the
    protocol sees; batching is invisible above this module. Dialled
    sockets — the only ones the mesh writes to — set [TCP_NODELAY],
    so the loop iteration and the watermark are the only coalescing:
    the kernel never holds a sealed batch back for a delayed ACK.

    {b Zero-copy paths.} Outbound frames are built straight into the
    per-peer batch and flushed from an {!Iobuf} with a single
    [Unix.write] (no [Buffer.contents] copy); {!send_writer} moves a
    codec writer's bytes in without an intermediate string. Inbound
    frames are reassembled in a reusable buffer and handed to
    [on_frame] as borrowed {!Svs_codec.Codec.Slice} windows — valid
    only during the callback.

    Outbound data is buffered and flushed opportunistically, so a slow
    peer never blocks the caller — exactly the buffering behaviour the
    paper's flow-control story assumes. *)

type t

(** How dial retries back off. Delays grow geometrically from
    [base_delay] by [multiplier] up to [max_delay], each scaled by a
    deterministic jitter in [1 ± jitter] (seeded from the node id) so a
    mesh restarting together does not dial in lockstep. With
    [max_attempts = Some n], a peer that fails [n] consecutive dials is
    written off — crash-stop semantics — and its queued frames are
    dropped (and counted) instead of accumulating forever. *)
type dial_policy = {
  base_delay : float;
  max_delay : float;
  multiplier : float;
  jitter : float;
  max_attempts : int option;  (** [None]: retry forever. *)
}

val default_dial_policy : dial_policy
(** 50 ms base, 2 s cap, doubling, 20% jitter, no attempt cap. *)

(** How decode failures escalate. Every failure attributed to a peer
    bumps its misbehavior score by 1; the score leaks away at [decay]
    per second. At [reset_score] the peer's inbound links are torn
    down (a fresh stream clears framing desync); at [quarantine_score]
    the peer is quarantined — links down both ways, reconnects refused
    — until [forgive_after] seconds pass, when it is automatically
    forgiven (score cleared, link dialed back). Honest peers on flaky
    networks produce isolated failures the decay forgives; only a
    sustained stream of garbage escalates. *)
type hostile_policy = {
  reset_score : float;
  quarantine_score : float;
  forgive_after : float;  (** Quarantine duration, seconds. *)
  decay : float;  (** Score units forgiven per second. *)
}

val default_hostile_policy : hostile_policy
(** Reset at 3, quarantine at 8, 5 s cooldown, decay 1/s. *)

(** Flow control for outbound queues. Below [soft], sends take the
    zero-copy fast path. At [soft] the link enters backpressure:
    frames queue in an overflow stage where {e semantic shedding} may
    purge a queued-but-unsent frame once a newer queued frame makes it
    obsolete — under the prefix-safe suffix rule only (see
    {!Svs_obs.Shed}), so the FIFO stream the peer observes always
    carries a cover for anything shed. At [hard] the link is
    considered overloaded: {!would_block} turns true so the
    application can stop admitting new multicasts, and the time spent
    continuously over [hard] feeds the slow-member escalation policy
    upstairs. The link leaves backpressure when it drains back to
    [resume]. [budget] caps the whole mesh's buffered bytes (all
    peers): beyond it {!would_block} is true regardless of any single
    link. [shed = false] disables shedding (frames queue unboundedly —
    the pre-flow-control behaviour, for A/B runs). *)
type backpressure_policy = {
  soft : int;
  hard : int;
  resume : int;
  budget : int;
  shed : bool;
}

val default_backpressure : backpressure_policy
(** soft 256 KiB, hard 2 MiB, resume 64 KiB, budget 32 MiB, shedding
    on. *)

val listener : Unix.sockaddr -> Unix.file_descr * Unix.sockaddr
(** Bind + listen; returns the socket and its actual address (useful
    with port 0). *)

(** Outer-frame reassembly over a reusable buffer, exposed for tests
    (torn frames at arbitrary byte boundaries). [next] returns a
    borrowed slice valid until the next [feed]. *)
module Assembler : sig
  type t

  type result =
    | Frame of Svs_codec.Codec.Slice.t
    | Await  (** Need more bytes. *)
    | Oversize of int  (** Header announces more than [max_frame] bytes. *)

  val create : ?max_frame:int -> unit -> t

  val feed : t -> string -> unit

  val next : t -> result

  val buffered : t -> int
  (** Bytes held but not yet returned as frames. *)
end

val iter_batch : Svs_codec.Codec.Slice.t -> (Svs_codec.Codec.Slice.t -> unit) -> unit
(** Iterate the inner frames of a batch payload, in order, as borrowed
    sub-slices. @raise Svs_codec.Codec.Truncated (or [Malformed]) when
    the payload is not a well-formed batch. *)

val create :
  Loop.t ->
  me:int ->
  listen_fd:Unix.file_descr ->
  peers:(int * Unix.sockaddr) list ->
  on_frame:(src:int -> Svs_codec.Codec.Slice.t -> unit) ->
  ?tracer:Svs_telemetry.Trace.t ->
  ?metrics:Svs_telemetry.Metrics.t ->
  ?dial:dial_policy ->
  ?hostile:hostile_policy ->
  ?backpressure:backpressure_policy ->
  ?max_frame:int ->
  unit ->
  t
(** Starts accepting and dialing immediately; dials are retried per
    [dial] (default {!default_dial_policy}). [max_frame] (default
    8 MiB) bounds the payload size this node will buffer for a single
    inbound outer frame (plus a small framing allowance): a larger
    header — a hostile peer, corruption, or a foreign protocol —
    resets that link gracefully instead of exhausting memory. A first
    frame that is not a well-formed hello resets the link too, as does
    a batch payload that does not parse.

    [on_frame] receives each inner frame as a borrowed slice into the
    connection's inbound buffer: decode (or copy) before returning,
    never retain the slice.

    Sends accumulate in a per-peer batch that is sealed and written
    when the loop is about to wait (one batch per loop iteration), or
    earlier when it reaches the watermark (min(64 KiB, max_frame)).

    [hostile] (default {!default_hostile_policy}) governs how decode
    failures escalate to link resets and quarantine; inbound framing
    failures (oversize, bad batch) feed it automatically, and the
    protocol layer reports its own decode failures via
    {!note_misbehavior}.

    [tracer] receives [TcpReconnect] whenever an outgoing link comes up
    after at least one failed dial, [TcpDrop] (with a reason:
    ["unknown-dst"], ["written-off"], ["dial-cap"], ["stream-broken"],
    ["oversize"], ["bad-hello"], ["bad-batch"], ["quarantined"], or
    the reason passed to {!note_misbehavior}) whenever traffic is
    discarded, and [Quarantine] when a peer crosses the quarantine
    threshold. [metrics] registers [tcp_bytes_out_total],
    [tcp_bytes_in_total], [tcp_reconnects_total],
    [tcp_frames_dropped_total], [tcp_frames_oversize_total],
    [tcp_writeoff_resets_total], [tcp_flushes_total],
    [tcp_writev_bytes_total], [tcp_peer_quarantined_total] and the
    [tcp_batch_frames] histogram (inner frames per sealed batch),
    labelled by node. *)

val send : t -> dst:int -> ?meta:Svs_obs.Shed.key -> string -> unit
(** Queue a frame for [dst]; buffered until the connection is up.
    [meta] identifies the frame as a sheddable data frame carrying
    that message: while the link is under backpressure, queueing a
    frame whose annotation obsoletes older queued frames purges those
    older frames (per the suffix rule — see {!backpressure_policy}).
    Frames without [meta] are never shed.
    Frames to unknown or written-off destinations are dropped — loudly:
    counted in [tcp_frames_dropped_total] and traced as [TcpDrop].

    Once an {e established} connection to a peer fails, the peer is
    written off and not redialed: bytes already in flight may have
    been lost, so silently resuming the stream would violate the
    reliable-FIFO channel assumption of the system model. The peer is
    handled as crashed (suspicion, view change) instead — until
    {!forget_peer} forgives it, or its restarted incarnation dials us
    with a fresh hello (which forgives it automatically). *)

val send_writer : t -> dst:int -> ?meta:Svs_obs.Shed.key -> Svs_codec.Codec.Writer.t -> unit
(** Like {!send}, but moves the writer's bytes into the batch without
    materializing a string (fast path; under backpressure the bytes
    are materialized once into the overflow stage). The writer is not
    cleared. *)

val flush : t -> unit
(** Seal and write every peer's pending output now, without waiting
    for the loop to go idle. *)

val note_misbehavior : t -> src:int -> reason:string -> unit
(** Report a decode failure attributed to [src] from a layer above the
    transport (e.g. a packet envelope or protocol message that did not
    parse). Counts and traces a [TcpDrop] with [reason], bumps [src]'s
    misbehavior score, and escalates per the [hostile] policy:
    repeated garbage tears the peer's links down and eventually
    quarantines it. *)

val quarantined : t -> peer:int -> bool
(** True while [peer] is serving a quarantine cooldown. *)

val quarantined_total : t -> int
(** Peers quarantined so far (the [tcp_peer_quarantined_total]
    counter). *)

val forget_peer : t -> dst:int -> unit
(** Restore [dst]'s full dial budget and, if it was written off, allow
    a fresh stream to it (counted in [tcp_writeoff_resets_total]).
    Call when the membership layer readmits a previously excluded or
    crashed peer: the lost bytes of the old stream belong to the dead
    incarnation, which the intervening view change accounted for, so a
    new FIFO stream to the new incarnation is sound. Also invoked
    internally when a written-off peer's new incarnation dials us. *)

val connected : t -> int list
(** Peers whose outbound connection is currently established. *)

val pending_bytes : t -> dst:int -> int
(** Outbound bytes not yet handed to the kernel — sealed frames, the
    open batch, plus the backpressure overflow stage (the sender-side
    buffer of the paper's model). *)

val total_pending : t -> int
(** Sum of {!pending_bytes} over every peer. *)

val drop_pending : t -> dst:int -> int
(** Discard everything queued towards [dst] (returning the byte
    count), leaving the link configured. For the membership layer:
    once a view without [dst] is installed, its queued frames are dead
    weight against the budget. Counted in [tcp_frames_dropped_total]
    and traced as [TcpDrop] with reason ["member-left"]. *)

val would_block : t -> bool
(** Admission-control signal: true while any live (non-written-off)
    peer is at or over the [hard] watermark, or the mesh as a whole is
    at or over [budget]. A well-behaved application stops multicasting
    until this clears. *)

val backpressure : t -> backpressure_policy
(** The policy this mesh was created with. *)

val shed_frames : t -> int
(** Frames purged by semantic shedding so far (the
    [tcp_shed_frames_total] counter). *)

(** A link's flow-control stage: [Bp_soft] once over the soft
    watermark (shedding engaged), [Bp_hard] while over the hard
    watermark (admission control engaged). *)
type bp_stage = Bp_normal | Bp_soft | Bp_hard

val stage_name : bp_stage -> string
(** ["normal"], ["soft"] or ["hard"] — for status JSON. *)

(** One outgoing link's condition, for status reporting. *)
type peer_stat = {
  peer : int;
  up : bool;  (** Outbound connection currently established. *)
  nodelay : bool;
      (** [TCP_NODELAY] is set on the established connection, as read
          back from the socket when the dial succeeded ([false] while
          down). *)
  pending : int;  (** {!pending_bytes} towards this peer. *)
  attempts : int;  (** Consecutive failed dials (0 once connected). *)
  written_off : bool;
  quarantined : bool;  (** Currently serving a quarantine cooldown. *)
  stage : bp_stage;
  shed : int;  (** Frames shed from this link's queue so far. *)
  over_hard_s : float;
      (** Seconds spent continuously over the hard watermark (0 when
          under it) — the slow-member escalation clock. *)
}

val peer_stats : t -> peer_stat list
(** Every configured peer's {!peer_stat}, ordered by peer id. *)

val bytes_out : t -> int
(** Bytes actually written to the kernel so far (all peers). *)

val bytes_in : t -> int
(** Bytes read from all incoming connections so far. *)

val reconnects : t -> int
(** Outgoing links that came up after at least one failed dial. *)

val frames_dropped : t -> int
(** Frames discarded so far (unknown destination, written-off peer,
    dial cap, oversize, bad hello, bad batch). *)

val frames_oversize : t -> int
(** Inbound frames refused for exceeding [max_frame]. *)

val writeoff_resets : t -> int
(** Written-off peers forgiven so far (via {!forget_peer} or an
    inbound hello from a restarted incarnation). *)

val flushes : t -> int
(** Write syscalls issued so far (all peers). *)

val dial_attempts : t -> dst:int -> int
(** Consecutive failed dials towards [dst] (0 once connected). *)

val written_off : t -> dst:int -> bool
(** True once [dst] has been given up on (broken stream or dial cap). *)

val pause_reads : t -> unit
(** Stop servicing inbound sockets and the accept queue: the node
    keeps running but reads nothing, so peers' kernel buffers fill and
    their meshes see a slow consumer. For benches and chaos tests. *)

val resume_reads : t -> unit
(** Undo {!pause_reads}: resume accepting and reading. *)

val close : t -> unit
(** Flush what the kernel will take, then close every socket (the
    process "crashes" from the peers' point of view). *)
