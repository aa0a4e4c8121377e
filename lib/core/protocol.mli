(** The Semantic View Synchrony protocol of the paper's Figure 1.

    One value of type ['p t] is a single process's protocol state. The
    module is transport- and consensus-agnostic: every transition that
    would send a message or start consensus instead pushes an
    {!Types.output} which the embedding (usually {!Group}) drains with
    {!take_outputs} and routes. Inputs are the paper's transitions:

    - t1 {!deliver} — the application pulls the next message;
    - t2 {!multicast} — the application sends, with an obsolescence
      annotation;
    - t3/t5/t6 {!receive} — a wire message ([DATA]/[INIT]/[PRED])
      arrives;
    - t4 {!trigger_view_change} — an external event requests removal
      of some members;
    - t7 completes through the consensus service: the [Propose] output
      carries the (next view, predecessor set) proposal and {!decided}
      feeds the decision back.

    Purging (the shaded steps of Figure 1) runs at multicast,
    reception, and view installation when [semantic] is on; with it off
    the protocol is the underlying conventional View Synchrony
    algorithm, which is also what an empty obsolescence relation
    yields.

    The delivered messages of the current view stay in the PRED
    bookkeeping until they are stable or, with [semantic] on, until a
    later delivery covers them: SVS only asks each survivor to deliver
    some [m'] with [m ⊑ m'], so the covering [m'] is enough (see
    {!Retained}). *)

type 'p t

type recovery = { view_id : int; floors : (int * int) list; next_sn : int }
(** The durable slice of a process's state, as recovered from a
    write-ahead log (or snapshotted by the simulator): the id of the
    last installed view, the per-sender delivery floors, and the next
    multicast sequence number. Restoring it across a restart is what
    keeps Integrity (no duplicate delivery, no Msg_id reuse) true
    under crash–recovery. *)

val create :
  me:int ->
  initial_view:View.t ->
  ?semantic:bool ->
  ?evict_uncovered:bool ->
  ?tracer:Svs_telemetry.Trace.t ->
  ?metrics:Svs_telemetry.Metrics.t ->
  ?clock:(unit -> float) ->
  suspects:(int -> bool) ->
  unit ->
  'p t
(** [semantic] defaults to [true]. [suspects] is the failure-detector
    query used by the t7 guard. [evict_uncovered] (default [false])
    breaks the protocol on purpose, for the inverted self-checks: every
    delivery then also drops the whole delivered store from the PRED
    bookkeeping, covered or not.

    Telemetry: [tracer] (default {!Svs_telemetry.Trace.nop}) receives
    the protocol's trace events — [Multicast], one [Purge] per purged
    message, one [Evict] per delivered message a later delivery
    covers, [Block]/[Unblock], [ConsensusDecide], [ViewInstall]. When
    [metrics] is given, the process registers [svs_purged_total]
    (labelled [node] and [site] = [multicast]/[receive]/[install]),
    [svs_evicted_total], the
    [svs_buffer_occupancy] gauge, and the [svs_blocked_seconds] span
    histogram, all with O(1) hot-path updates; without it the same
    instruments exist detached, so instrumentation costs the same
    either way. [clock] (default constant [0.]) stamps blocked spans —
    pass virtual or wall time to match the embedding. *)

val create_joiner :
  me:int ->
  ?recovery:recovery ->
  ?semantic:bool ->
  ?evict_uncovered:bool ->
  ?tracer:Svs_telemetry.Trace.t ->
  ?metrics:Svs_telemetry.Metrics.t ->
  ?clock:(unit -> float) ->
  suspects:(int -> bool) ->
  unit ->
  'p t
(** A process outside the group that wants in: it starts {!joining}
    and becomes a member only when a sponsor's SYNC arrives (after some
    member admitted it via {!trigger_view_change}[ ~join] in response
    to its {!join_request}). Until then it holds a placeholder
    single-member view whose id is [recovery.view_id] (so pre-crash
    traffic is recognised as stale) or [-1] for a fresh process. *)

val joining : 'p t -> bool
(** True while waiting for a sponsor's SYNC. *)

val parked : 'p t -> bool
(** True after {!park}: the process lost the primary component. *)

val park : 'p t -> unit
(** Quorum loss: the embedding decided (on its detector-driven
    deadline) that the current view change cannot assemble a majority
    of the previous view. The process leaves the [Member] state and
    freezes — {!multicast} fails with [`Not_member], {!deliver} returns
    [None], {!receive} drops everything, and no view is ever installed
    — while its delivery floors, queue, and next sequence number stay
    intact. Re-entry goes through {!create_joiner} with a [recovery]
    built from this state (see {!floors}/{!next_sn}): the merge is a
    new incarnation over the JOIN/SYNC path, so Integrity holds across
    the partition. No-op unless currently a member. Traced as [Parked]
    and counted in [svs_parked_total]. *)

val join_request : 'p t -> contact:int -> unit
(** Ask [contact] (a presumed group member) to admit this process into
    the next view. Idempotent and retryable: requests that reach a
    blocked member, a non-member, or a view that still lists this
    process are dropped, so callers should retry (possibly cycling
    contacts) until no longer {!joining}. No-op unless {!joining}. *)

val set_state_transfer : 'p t -> (unit -> string option) -> unit
(** Install the application-state snapshot callback. When this process
    sponsors a joiner, the callback's result rides the SYNC message
    and surfaces at the joiner as {!Types.Synced}. Default: [None]. *)

val mark_lease_uncertain : 'p t -> unit
(** Tell a recovering joiner its durable sequence lease could not be
    proven intact (a salvaged WAL with damaged regions). On its next
    SYNC it additionally raises [next_sn] above the group's delivery
    floor for it, so no sequence number an earlier incarnation put on
    the wire — and the group fully delivered — can be reused. One-shot;
    cleared by the SYNC that consumes it. *)

val floors : 'p t -> (int * int) list
(** Per-sender delivery floors (highest accepted sequence number), the
    durable dedup state. Unordered. *)

val next_sn : 'p t -> int
(** The sequence number the next {!multicast} will use. *)

val me : 'p t -> int

val current_view : 'p t -> View.t

val blocked : 'p t -> bool
(** True while a view change is in progress (between the first [INIT]
    and the installation of the next view). *)

val alive : 'p t -> bool
(** False once the process has been excluded from the group, and while
    it is still {!joining} or {!parked}. *)

val to_deliver_length : 'p t -> int
(** Data messages queued for the application (excludes view markers). *)

val purged_count : 'p t -> int
(** Total messages purged as obsolete since creation (the sum of
    {!purged_at} over the three sites). *)

val purged_at : 'p t -> Svs_telemetry.Trace.site -> int
(** Messages purged at one of Figure 1's three purge sites: on local
    multicast, on reception, or on view installation. *)

val blocked_spans : 'p t -> Svs_telemetry.Metrics.Histogram.t
(** Durations (per {!create}'s [clock]) of completed blocked periods,
    from the first [INIT] to the next installation. *)

val multicast :
  'p t -> ?ann:Svs_obs.Annotation.t -> 'p -> ('p Types.data, [ `Blocked | `Not_member ]) result
(** t2. [ann] defaults to [Unrelated]. Fails while {!blocked} (the
    paper's guard: the application must retry after the view change)
    or when this process is not (or no longer) a group member. *)

val receive : 'p t -> src:int -> 'p Types.wire -> unit
(** t3/t5/t6 with the guard discipline of Figure 1: messages for past
    views are discarded, messages for future views are stashed and
    re-examined after the next installation. *)

val deliver : 'p t -> 'p Types.delivery option
(** t1. [None] when the queue is empty. *)

val trigger_view_change : 'p t -> ?join:int list -> leave:int list -> unit -> unit
(** t4, extended with admissions: the next view drops [leave] and adds
    [join] (default [[]]). Joiners that are already current members are
    ignored — exclusion and readmission can never share a transition,
    so a rejoining process always re-enters with a view-id gap. The
    least-id surviving member sponsors each admitted joiner with a
    SYNC (view, floors, application state) once the change decides.
    Ignored while already {!blocked}. *)

val notify_suspicion_change : 'p t -> unit
(** Re-evaluate the t7 guard after the failure detector changed. *)

val decided : 'p t -> view_id:int -> 'p Types.proposal -> unit
(** Consensus decision for the view-change instance [view_id]. *)

val take_outputs : 'p t -> 'p Types.output list
(** Drain pending outputs, oldest first. *)

val gossip_stability : 'p t -> unit
(** Broadcast this process's per-sender receive floors ([STABLE]).
    When every member's floor covers a delivered message, it is stable
    and dropped from the PRED bookkeeping, keeping view changes cheap.
    A no-op while blocked or not a member. *)

val floors_risen : 'p t -> bool
(** Some receive floor rose since STABLE last went out (or none went
    out yet), so a {!gossip_stability} now tells the peers something
    new. *)

val trim_delivered : 'p t -> unit
(** Drop the delivered messages that the floors gossiped so far
    already make stable, if any message was delivered since the last
    trim. Receiving [STABLE] trims; this catches the messages a slow
    consumer delivers after the last [STABLE] arrived. A no-op while
    blocked or not a member. *)

val stable_trimmed : 'p t -> int
(** Delivered messages garbage-collected as stable so far. *)

val stable_rounds : 'p t -> int
(** [STABLE] broadcasts sent so far. *)

val evicted : 'p t -> int
(** Delivered messages evicted so far because a later delivery covers
    them. *)

val retained_peak : 'p t -> int
(** The most delivered messages the PRED bookkeeping held at once. *)

val accepted_in_view : 'p t -> 'p Types.data list
(** The local-pred sequence (messages of the current view accepted so
    far and not evicted, in order) — what t5 would send; exposed for
    tests. *)

(** {1 Model-checker support} *)

val mc_fingerprint : payload:('p -> string) -> 'p t -> string
(** A canonical digest of the behaviourally relevant protocol state:
    two processes with equal fingerprints react identically to every
    future input. Mutable containers are projected onto sorted pure
    shapes first, so two interleavings reaching the same logical state
    fingerprint equal regardless of insertion history; telemetry is
    excluded. [payload] must be an injective encoding of the payload
    type. Used by {!Svs_mc} for visited-state deduplication (see
    MODELCHECK.md). *)

val mc_wire_digest : payload:('p -> string) -> 'p Types.wire -> string
(** Canonical digest of one wire message — the in-flight half of the
    model checker's state fingerprint. *)
