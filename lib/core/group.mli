(** The user-facing group-communication stack: SVS protocol + simulated
    network + failure detector + consensus, assembled per process.

    A {!cluster} owns the shared pieces (network, optional oracle
    detector, optional consensus arbiter) and one {!t} per member.
    Applications multicast with an obsolescence annotation and pull
    deliveries; view changes appear in the delivery stream as
    {!Types.View_change} markers, exactly as in the paper's interface
    (§3.2: "view changes are signaled to the application by delivering
    a special control message").

    Every multicast, delivery, and application-level view installation
    is recorded in the cluster's {!Checker.t}, so any scenario built on
    this module can assert the SVS safety properties afterwards. *)

type 'p t

type 'p cluster

type detector_mode =
  | Oracle  (** Perfect detector driven by {!crash}. *)
  | Heartbeats of Svs_detector.Heartbeat.config

type consensus_mode =
  | Arbiter  (** Centralised decision service ({!Svs_consensus.Arbiter}). *)
  | Chandra_toueg  (** The real ◇S consensus over the same network. *)

(** The member shell's laggard rule ({!Member.laggard}) on the
    simulated network: a link is over the limit while more than
    [backlog_limit] of this member's data messages are held back at
    the peer. *)
type laggard = {
  backlog_limit : int;  (** This member's messages tolerated at a peer. *)
  report_after : float;  (** Seconds over the limit before a report. *)
  evict_after : float option;  (** Seconds over the limit before eviction. *)
}

type config = {
  semantic : bool;  (** Purge obsolete messages (false = plain VS). *)
  evict_uncovered : bool;
      (** Inverted self-checks only: break every member's protocol so
          that each delivery drops the whole delivered store from the
          PRED bookkeeping, covered or not (see {!Protocol.create}). *)
  buffer_capacity : int option;
      (** Bound on the delivery queue; when reached the member stops
          accepting data from the network (control traffic still
          flows), exerting backpressure. *)
  detector : detector_mode;
  consensus : consensus_mode;
  stability_period : float option;
      (** When set, members gossip receive floors at this period and
          garbage-collect stable messages from the PRED bookkeeping
          (keeps view changes cheap on long-running groups). Note:
          periodic gossip keeps the engine's event queue non-empty, so
          run the engine with a horizon. *)
  laggard : laggard option;
      (** Reconfiguration as a last resort (§3.2): each member evicts
          a peer that held its data back over the limit for
          [evict_after]. With purging on, this fires only when
          obsolescence cannot absorb the perturbation — the paper's
          "if purging is not enough ... reconfiguration can still
          happen". (Periodic checker: run the engine with a
          horizon.) *)
  park_timeout : float option;
      (** Primary-component survival: a member still blocked in the
          same view change after this many (virtual) seconds has lost
          the majority of its view — it parks: stops multicasting,
          delivering and installing, keeping its floors intact. See
          {!is_parked}. Default [None] (a minority member blocks
          forever, the pre-partition-survival behaviour). (Periodic
          checker: run the engine with a horizon.) *)
  merge : bool;
      (** When [true] (default) a parked member immediately re-enters
          as a recovering joiner and probes for the primary component
          with JOIN requests at cycling contacts; partitioned links
          hold the probes, so the merge happens automatically at the
          heal. [false] leaves parked members parked — used by the
          chaos no-merge self-check. *)
  divergence : Member.divergence option;
      (** When set, members gossip a cheap digest of their replicated
          state (installed view, merged floors, application digest via
          {!set_state_digest}) every [period]; a quiescent member
          whose digest disagrees with a unanimous rest-of-view for
          [rounds] consecutive evaluations concludes {e it} is the
          corrupt one, traced as [Divergence] and counted in
          {!divergence_events}, and with [heal] self-demotes and
          rejoins via JOIN/SYNC with state transfer ([heal = false]
          only counts: the inverted chaos self-check). Default [None].
          (Periodic gossip: run the engine with a horizon.) *)
  shed : int option;
      (** Semantic shedding of backlogged network queues (a paused
          member's inbox, a partitioned or manual-mode link): once a
          queue holds this many data messages, each newly queued
          annotated message sheds the contiguous newest-end run of
          same-stream, same-view messages it (transitively) obsoletes
          — the prefix-safe suffix rule (see
          {!Svs_net.Network.shed_policy}), the simulated counterpart
          of the runtime transport's flow control. Victims are traced
          as [Shed] and counted in {!shed_total}. Default [None]: no
          shedding, queues grow without bound. *)
  tracer : Svs_telemetry.Trace.t;
      (** Receives every member's trace events, stamped with virtual
          time (the cluster re-points the tracer's clock at the
          engine). Default {!Svs_telemetry.Trace.nop}. *)
  metrics : Svs_telemetry.Metrics.t option;
      (** When set, every member registers its per-node instruments
          here and the engine/network register theirs. *)
}

val default_config : config
(** semantic, unbounded buffer, oracle detector, arbiter consensus,
    auto view change, telemetry off. *)

val create_cluster :
  Svs_sim.Engine.t ->
  members:int list ->
  ?latency:Svs_net.Latency.t ->
  ?bandwidth:float ->
  ?payload_codec:'p Wire_codec.payload_codec ->
  ?manual_net:bool ->
  ?config:config ->
  unit ->
  'p cluster
(** With [bandwidth] (bytes/s) and [payload_codec], links serialise
    messages at their real encoded size, so view-change flushes and
    PRED exchanges take time proportional to what purging saved.
    [manual_net] (default false) creates the network in manual-delivery
    mode for the model checker: packets queue on their links until an
    explicit {!mc_deliver} — see the model-checker section below. *)

val engine : 'p cluster -> Svs_sim.Engine.t

val members : 'p cluster -> 'p t list

val member : 'p cluster -> int -> 'p t

val checker : 'p cluster -> Checker.t

val tracer : 'p cluster -> Svs_telemetry.Trace.t
(** The tracer from the cluster's config. *)

val bytes_sent : 'p cluster -> int
(** Total wire bytes (0 unless a payload codec was supplied). *)

val shed_total : 'p cluster -> int
(** Messages semantically shed from backlogged network queues so far
    (0 unless [config.shed] is set). *)

val backlog : 'p cluster -> int -> int
(** Data messages queued at a member's paused receive side (sheddable
    entries only when [config.shed] is set — control traffic is
    excluded so overload budgets measure what shedding can touch). *)

val crash : 'p cluster -> int -> unit
(** Crash-stop a member: silenced on the network, marked at the oracle
    detector (if any). *)

val restart : 'p cluster -> int -> recover:bool -> unit
(** Bring a crashed or excluded member back as a new incarnation in
    the joining state: it takes part in the group again only after the
    JOIN/SYNC handshake readmits it (drive it with {!request_join}).
    With [recover:true] the durable slice of the old incarnation's
    protocol state (last installed view id, delivery floors, next
    sequence number) seeds the new one — the simulator's stand-in for
    the real stack's write-ahead log; with [recover:false] the process
    returns amnesiac, modelling a node that lost its log (the safety
    checker flags the resulting duplicate deliveries). Any
    {!set_state_transfer} callback is re-installed on the new
    incarnation. With the oracle detector, the restarted node stops
    being suspected once no surviving member's view lists it (never
    mid-exclusion, which would stall that view change). Raises
    [Invalid_argument] if the member is still active. *)

val request_join : 'p t -> contact:int -> unit
(** Ask [contact] to admit this (joining) member into the next view.
    Safe to call repeatedly — requests are dropped until a member can
    act on them — so callers should retry until {!is_joining} turns
    false. No-op unless joining. *)

val is_joining : 'p t -> bool
(** True between {!restart} and the SYNC that readmits the member. *)

val partition : 'p cluster -> int -> int -> unit
(** Disconnect the pair of members; messages between them are held (not
    lost — the system model's channels are reliable) until {!heal}. *)

val heal : 'p cluster -> int -> int -> unit

val partition_sets : 'p cluster -> int list list -> unit
(** Split the group: disconnect every pair of nodes that lie in two
    different sets (links within a set stay up). A set-based wrapper
    over {!partition}, so {!heal}/{!heal_sets} undo it pair by pair. *)

val heal_sets : 'p cluster -> int list list -> unit
(** Reconnect every cross-set pair of the given split. *)

val write_off : 'p cluster -> int list -> unit
(** Mark the given nodes crashed at the oracle detector {e without}
    touching the network — what a real detector on the other side of a
    partition would conclude about an unreachable set. Skips nodes
    that are not current members (re-suspecting a joiner would wedge
    its readmission) and is a no-op under heartbeat detection, where
    the partition starves heartbeats for real. Suspicion is lifted by
    the ordinary restart path once the node is excluded from every
    surviving view. *)

val is_parked : 'p t -> bool
(** True from the quorum-loss transition until the member is merged
    back into the primary component (immediately false again after the
    sponsor's SYNC readmits it). *)

val parked_events : 'p cluster -> int
(** How many quorum-loss transitions happened in this cluster. *)

val set_state_digest : 'p t -> (unit -> int) -> unit
(** Application-state digest callback, folded into this member's
    divergence gossip (see the [divergence] config field). Survives
    {!restart}. *)

val divergence_events : 'p cluster -> int
(** How many divergence detections (self-demotions when healing is on)
    happened in this cluster. *)

val pause_receive : 'p cluster -> int -> unit
(** Freeze a member's receive side: inbound packets (data, control,
    heartbeats, consensus) queue at the network instead of being
    handled — the chaos model of a stalled process that is still
    running. {!resume_receive} drains the queue in order. *)

val resume_receive : 'p cluster -> int -> unit

val set_latency : 'p cluster -> Svs_net.Latency.t -> unit
(** Swap the network's latency model (chaos latency spikes). *)

val latency : 'p cluster -> Svs_net.Latency.t

(** {1 Member operations} *)

val id : 'p t -> int

val view : 'p t -> View.t

val is_blocked : 'p t -> bool

val is_member : 'p t -> bool
(** False once excluded from the group or crashed. *)

val multicast :
  'p t ->
  ?ann:Svs_obs.Annotation.t ->
  'p ->
  ('p Types.data, [ `Blocked | `Not_member ]) result

val deliver : 'p t -> 'p Types.delivery option

val deliver_all : 'p t -> 'p Types.delivery list
(** Drain everything currently deliverable. *)

val pending : 'p t -> int
(** Data messages waiting in the delivery queue. *)

val inbox : 'p t -> int
(** Data messages held back by backpressure (network side). *)

val inflight_from : 'p t -> src:int -> int
(** Of {!inbox}, those sent by [src] — lets a producer model a bounded
    outgoing buffer towards a slow receiver. *)

val purged : 'p t -> int
(** Messages purged as obsolete at this member so far. *)

val purged_at : 'p t -> Svs_telemetry.Trace.site -> int
(** {!purged}, split by purge site (multicast / receive / install). *)

val stable_trimmed : 'p t -> int
(** Messages garbage-collected as stable at this member so far. *)

val pred_size : 'p t -> int
(** Size of the PRED set this member would currently send (unstable
    accepted messages of the view) — the view-change flush cost. *)

val trigger_view_change : 'p t -> ?join:int list -> leave:int list -> unit -> unit
(** The next view drops [leave] and admits [join] (default [[]]); see
    {!Protocol.trigger_view_change}. *)

val set_state_transfer : 'p t -> (unit -> string option) -> unit
(** Application-state snapshot callback, sent in the SYNC when this
    member sponsors a joiner; survives {!restart}. *)

val on_installed : 'p t -> (View.t -> unit) -> unit
(** Protocol-level installation (before the marker reaches the
    application); used to measure view-change latency. *)

val on_synced : 'p t -> (View.t -> string option -> unit) -> unit
(** Fired when this member is readmitted by a sponsor's SYNC, with the
    installed view and the transferred application state (if any). *)

(** {1 Model-checker control surface}

    Used by {!Svs_mc} (see MODELCHECK.md). The cluster must have been
    created with [manual_net:true]: every packet then waits on its
    link until the explorer delivers it, so the interleaving is fully
    enumerable and in-flight traffic is part of the state
    fingerprint. *)

val is_down : 'p t -> bool
(** True between {!crash} (or exclusion) and {!restart}. *)

val mc_inflight : 'p cluster -> src:int -> dst:int -> int
(** Packets queued on the directed link. *)

val mc_partitioned : 'p cluster -> src:int -> dst:int -> bool

val mc_deliver : 'p cluster -> src:int -> dst:int -> bool
(** Deliver the head packet of the directed link (FIFO). [false] if
    the link is cut or empty. *)

val mc_head_is_data : 'p cluster -> src:int -> dst:int -> bool
(** Whether the packet {!mc_deliver} would hand over is an application
    DATA message — such deliveries to distinct destinations commute,
    which is what the explorer's partial-order reduction exploits;
    control traffic (view change, consensus, SYNC) does not. *)

type mc_state = {
  mc_nodes : (int * string) list;  (** member id, canonical digest *)
  mc_links : ((int * int) * string) list;
      (** (src, dst) for links that are cut or carry traffic *)
  mc_global : string;  (** detector + consensus + engine-queue digest *)
}

val mc_state : 'p cluster -> payload:('p -> string) -> mc_state
(** Canonical fingerprint of the whole cluster, split per node and per
    link so the explorer can diff consecutive states (the footprint of
    a transition) for its independence relation. [payload] must be an
    injective encoding of the payload type. *)
