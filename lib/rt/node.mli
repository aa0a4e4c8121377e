(** A group member running for real: the SVS protocol + heartbeat
    failure detection + Chandra–Toueg consensus over a TCP mesh, driven
    by wall-clock time.

    The same automata that run under the simulator are reused verbatim
    (they are transport-agnostic) — including the member shell
    {!Svs_core.Member}, which makes every consensus, suspicion, park,
    rejoin, divergence and sequence-lease decision for both stacks
    (the node keeps only the I/O: mesh, WAL, tracing); their timers are
    events on the loop's one queue ({!Loop.engine}), whose clock reads
    wall-clock time.

    Deliveries are pulled with {!deliver} — the paper's down-call
    interface (§3.2): messages the application has not consumed yet
    stay in the protocol buffers where they remain purgeable. Suspicion
    (missed heartbeats) triggers a view change automatically, like the
    simulated {!Svs_core.Group} stack. *)

type 'p t

(** The member shell's laggard rule ({!Svs_core.Member.laggard}),
    measured on the time a link has spent continuously over the hard
    backpressure watermark. Stage 1 is the transport's own flow
    control (stall + semantic shedding); at [report_after] seconds the
    member reports the laggard ([rt_slow_member_reports_total], a
    [Backpressure] trace event with stage ["reported"], a warning
    log); at [evict_after] seconds it suspects the peer until its link
    drains, handing it to the ordinary suspicion → view-change path —
    the group agrees on a view without it instead of one node
    expelling it unilaterally. *)
type slow_member_policy = Svs_core.Member.laggard = {
  report_after : float;
  evict_after : float option;  (** [None]: report but never evict. *)
}

type config = {
  semantic : bool;
  heartbeat : Svs_detector.Heartbeat.config;
  stability_period : float option;
      (** A member sends its receive floors ([STABLE]) on the node's
          10 ms tick after they rise, so delivered messages become
          stable, and leave the PRED bookkeeping, about a tick after
          every member has them. This period only resends unchanged
          floors; [None] turns the resend off. *)
  park_timeout : float option;
      (** Primary-component survival. When set, a member still blocked
          in the same view change after this many wall-clock seconds
          has lost the majority of its view: it {e parks} (stops
          multicasting and delivering fresh messages, keeps its floors
          and WAL) and turns into a recovering joiner that probes
          every peer until the partition heals, then merges back
          through the ordinary JOIN/SYNC path with state transfer. A
          member that instead learns it was {e excluded} while cut off
          takes the same rejoin path rather than stopping. [None]
          (default) keeps the pre-partition behaviour: exclusion stops
          the node. *)
  tracer : Svs_telemetry.Trace.t;
      (** Receives the node's trace events stamped with wall-clock
          time (the node re-points the tracer's clock at the loop). *)
  metrics : Svs_telemetry.Metrics.t option;
      (** When set, registers the node's instruments: the protocol's
          purge/occupancy/blocked set, the mesh byte counters and
          batching instruments, [rt_suspicions_total],
          [rt_merge_seconds] and the slow-member and divergence
          counters, labelled by node. End-to-end and per-stage
          latency are measured by [perfbench/], not here. *)
  hostile : Tcp_mesh.hostile_policy;
      (** How decode failures (transport framing and packet envelopes
          alike) escalate to link resets and peer quarantine; see
          {!Tcp_mesh.hostile_policy}. *)
  divergence_period : float option;
      (** Divergence self-healing. When set, every member sends its
          replicated-state digest (installed view, merged floors,
          application digest via [state_digest]) to the rest of its
          view at this period, and compares the reports half a period
          later. A quiescent member whose
          digest disagrees with a unanimous rest-of-view for several
          consecutive rounds concludes {e it} is the corrupt one:
          it self-demotes (asks the group to exclude it, counted in
          [svs_divergence_detected_total] and traced as [Divergence])
          and re-enters through JOIN/SYNC with state transfer. [None]
          (default) disables the gossip and the check. *)
  backpressure : Tcp_mesh.backpressure_policy;
      (** Outbound flow control: watermarks, the mesh-wide budget and
          the semantic-shedding switch (see
          {!Tcp_mesh.backpressure_policy}). *)
  slow_member : slow_member_policy;
      (** How a link stuck over the hard watermark escalates (see
          {!slow_member_policy}). *)
  max_frame : int;
      (** Largest single inbound frame the mesh will buffer (see
          {!Tcp_mesh.create}). The view change's PRED echoes every
          unstable message of the view as one frame, so a group with
          large payloads or a deep unstable backlog (e.g. one jammed
          member pinning stability) must raise this above its worst
          flush size, or the PRED exchange itself resets the link. *)
}

val default_config : config
(** Semantic purging on, 100 ms heartbeats (350 ms initial timeout),
    floors resent every second, no park timeout, telemetry off,
    default hostile policy, divergence healing off, default
    backpressure, a slow member reported after 2 s over the hard
    watermark and evicted after 15 s, 8 MiB max frame. *)

val create :
  Loop.t ->
  me:int ->
  listen_fd:Unix.file_descr ->
  peers:(int * Unix.sockaddr) list ->
  payload_codec:'p Svs_core.Wire_codec.payload_codec ->
  ?config:config ->
  ?on_deliverable:(unit -> unit) ->
  ?data_dir:string ->
  ?state_transfer:(unit -> string option) ->
  ?state_digest:(unit -> int) ->
  ?on_synced:(Svs_core.View.t -> string option -> unit) ->
  unit ->
  'p t
(** [peers] must list every initial member (including [me], whose
    address entry is ignored for dialing). The initial view is the set
    of peer ids. [on_deliverable] is a hint fired when new messages
    became deliverable.

    [data_dir] makes the node durable: a {!Wal} in that directory
    records installed views, per-sender delivery floors, and the
    member's sequence-number lease ceilings
    ({!Svs_core.Member.host}'s [durable_lease]; the 50 ms group-commit
    tick carries lease extensions). A node created over a directory that
    already holds a log is a {e restarted incarnation}: it comes up as
    a joiner (not a member — its previous streams died with it), nags
    the peers with JOIN requests until some member admits it into the
    next view, and resumes from its durable floors so nothing is
    delivered twice across the crash ({!Svs_core.Checker}'s Integrity
    contract under recovery). The recovery is traced as [WalRecovery];
    recovery salvages around corrupt log regions (see {!Wal.open_}),
    and when the salvage cannot prove the durable lease intact the
    recovery is [tainted]: the member over-provisions its sequence
    lease and relies on the sponsor's floors to stay above anything it
    ever sent.

    @raise Wal.Open_error when [data_dir] holds another node's log —
    refuse the data dir rather than corrupt it.

    [state_transfer] is this node's application-snapshot callback,
    shipped when it sponsors a joiner; [state_digest] is a cheap hash
    of the same application state, folded into the divergence digest
    gossip (see [divergence_period]); [on_synced] fires with the
    re-entry view and the sponsor's snapshot when {e this} node joins. *)

val deliver : 'p t -> 'p Svs_core.Types.delivery option
(** Pull the next delivery (down-call interface). *)

val deliver_all : 'p t -> 'p Svs_core.Types.delivery list

val pending : 'p t -> int
(** Data messages waiting in the delivery queue. *)

val view : 'p t -> Svs_core.View.t

val is_member : 'p t -> bool

val is_joining : 'p t -> bool
(** True while this (restarted or fresh-joining) node is still waiting
    for a sponsor's SYNC. *)

val parked : 'p t -> bool
(** True from the moment this node parked on quorum loss until its
    merge back into the primary component completes (the [Merge] trace
    event / [rt_merge_seconds] observation). Always false without
    [park_timeout]. *)

val multicast :
  'p t ->
  ?ann:Svs_obs.Annotation.t ->
  'p ->
  ('p Svs_core.Types.data, [ `Blocked | `Not_member ]) result
(** Never blocks the caller: a slow peer's frames queue (and, under
    backpressure, shed) in the mesh. An unchecked publisher can
    therefore outrun the mesh budget — see {!would_block} /
    {!try_multicast} for the admission-control surface. *)

val would_block : 'p t -> bool
(** True while the transport asks the application to stop admitting
    multicasts: some live peer is at or over the hard watermark, or
    the mesh is over its byte budget. *)

val try_multicast :
  'p t ->
  ?ann:Svs_obs.Annotation.t ->
  'p ->
  ('p Svs_core.Types.data, [ `Blocked | `Not_member | `Would_block ]) result
(** {!multicast} gated on {!would_block}: refuses with [`Would_block]
    instead of queueing into an overloaded mesh. *)

val shed_frames : 'p t -> int
(** Frames purged from outbound queues by semantic shedding so far. *)

val slow_reports : 'p t -> int
(** Slow-member reports raised so far (the
    [rt_slow_member_reports_total] counter). *)

val pause_reads : 'p t -> unit
(** Stop reading from the network (accept queue included) while
    continuing to run timers and send — a live but wedged consumer.
    For benches and chaos tests; see {!Tcp_mesh.pause_reads}. *)

val resume_reads : 'p t -> unit

val purged : 'p t -> int

val purged_at : 'p t -> Svs_telemetry.Trace.site -> int
(** {!purged}, split by purge site. *)

val stable_trimmed : 'p t -> int
(** Delivered messages this incarnation dropped from the PRED
    bookkeeping as stable. *)

val stable_rounds : 'p t -> int
(** [STABLE] broadcasts this incarnation sent. *)

val bytes_out : 'p t -> int
(** Bytes written to the TCP mesh so far. *)

val bytes_in : 'p t -> int
(** Bytes read from the TCP mesh so far. *)

val suspicions : 'p t -> int
(** Heartbeat-timeout suspicions raised so far. *)

val divergences : 'p t -> int
(** Divergence self-demotions triggered so far (the
    [svs_divergence_detected_total] counter). *)

val pending_to : 'p t -> dst:int -> int
(** Outbound bytes buffered towards a peer (sender-side buffer). *)

val status_label : 'p t -> string
(** One-word protocol condition: ["member"], ["blocked"], ["joining"],
    ["parked"], ["dead"] or ["stopped"]. *)

val wal_segment : 'p t -> int option
(** Index of the WAL segment currently appended to; [None] without
    [data_dir]. *)

val status_json : 'p t -> string
(** A JSON object describing this node right now: status label,
    uptime, current view, queue depth, purge/suspicion totals, the
    current incarnation's evictions and peak delivered-store length
    (see {!Svs_core.Protocol.evicted}), next
    sequence number, per-sender delivery floors, WAL segment, byte
    totals and per-peer link condition. What an admin [/status]
    endpoint serves. *)

val shutdown : 'p t -> unit
(** Close all sockets and stop the node's timers (a crash, from the
    group's point of view). *)
