(** The member shell: one process's SVS automaton around a
    {!Protocol.t}, shared by the simulator ({!Group}) and the runtime
    ([Svs_rt.Node]).

    {!Protocol} is Figure 1 and pushes outputs; every decision a member
    makes around it lives here, once: output draining; the §3.1
    consensus hand-off (a Chandra–Toueg instance per view change, early
    consensus traffic stashed and replayed, or the host's centralised
    [propose]); suspicion → view change; the park deadline and the
    exclusion → probing-joiner rejoin policy with its contact-cycling
    JOIN nag; merge timing; the divergence digest gossip, detection
    and self-demotion; the laggard rule (report, then evict a peer the
    driver measures over its limit); stability gossip, on a timer and
    on the host's tick once floors rise. Transport,
    detector, measurements, durability and recording stay in the
    driver, reached through {!host}. Timers run on the driver's
    {!Svs_sim.Engine}, armed only when their feature is configured. *)

type 'p host = {
  send_wire : dst:int -> 'p Types.wire -> unit;
  send_cons : dst:int -> view_id:int -> 'p Types.proposal Svs_consensus.Chandra_toueg.msg -> unit;
  suspects : int -> bool;  (** Failure-detector query (t7 guard, consensus). *)
  suspected : unit -> int list;
      (** What a suspicion event hands to the view change; [[]] leaves
          the view alone. *)
  propose : (view_id:int -> 'p Types.proposal -> unit) option;
      (** A centralised decision service; [None] runs Chandra–Toueg. *)
  backlog : unit -> int;
      (** Data the driver holds back from the protocol; a member with a
          backlog is not quiescent for the divergence check. *)
  deliverable : unit -> unit;  (** Called after every drain. *)
  installed : View.t -> unit;
  excluded : View.t -> rejoin:bool -> unit;
      (** [rejoin]: the member comes back as a probing joiner on the
          next engine tick; otherwise the exclusion is final. *)
  synced : View.t -> string option -> unit;
  parked : unit -> unit;  (** Quorum loss, before any rejoin. *)
  rejoin : unit -> unit;
      (** Swap in a recovering joiner: call {!restart} with the
          recovery the driver can vouch for, and revive the transport. *)
  lag : int -> float * int;
      (** For the laggard rule: how long (seconds) the link to a peer
          has been continuously over the driver's limit, [0.] when it
          is not, and how much is pending on it (for the trace). *)
  send_digest : dst:int -> view_id:int -> int -> unit;
      (** Digest gossip: deliver this member's digest to [dst], which
          hands it to {!note_digest}. *)
}

type divergence = {
  period : float;  (** Gossip and evaluation period. *)
  rounds : int;
      (** Consecutive identical disagreements that convict. Only the
          {e same} disagreement (both digests unchanged) extends the
          streak, so floor lag under in-flight traffic never convicts
          a healthy member. *)
  heal : bool;  (** Self-demote on conviction; [false] only counts. *)
}

(** Reconfiguration as a last resort (§1, §3.2): a peer whose link has
    been over the driver's limit (see [lag]) for [report_after]
    seconds is reported once per episode — [slow_reports], a
    [Backpressure] trace event with stage ["reported"], a warning —
    and at [evict_after] seconds it is suspected: the group agrees on
    a view without it through the ordinary suspicion → view-change
    path. The eviction's suspicion lasts as long as the lag, so the
    peer's own heartbeats cannot rescind it; the episode ends when the
    lag reads [0.]. *)
type laggard = {
  report_after : float;
  evict_after : float option;  (** [None]: report but never evict. *)
}

type 'p t

val create :
  Svs_sim.Engine.t ->
  me:int ->
  peers:int list ->
  clock:(unit -> float) ->
  ?semantic:bool ->
  ?evict_uncovered:bool ->
  ?tracer:Svs_telemetry.Trace.t ->
  ?metrics:Svs_telemetry.Metrics.t ->
  ?recovery:Protocol.recovery ->
  ?park_timeout:float ->
  ?merge:bool ->
  ?divergence:divergence ->
  ?laggard:laggard ->
  ?stability_period:float ->
  ?merge_spans:Svs_telemetry.Metrics.Histogram.t ->
  ?divergences:Svs_telemetry.Metrics.Counter.t ->
  ?slow_reports:Svs_telemetry.Metrics.Counter.t ->
  'p host ->
  'p t
(** A member of the initial view [peers], or with [recovery] a joiner
    that nags [peers] for readmission. [clock] stamps blocked spans,
    park deadlines and merge spans. [park_timeout] arms the quorum-loss
    watchdog; [merge] (default [true]) makes a parked, or cut-off and
    excluded, member rejoin. [divergence] arms the digest gossip (sent
    every [period]) and its evaluation (half a period later).
    [laggard] arms the laggard rule, ticking every [report_after / 4].
    [stability_period] arms the [STABLE] timer: every period the
    member gossips its receive floors. A host that calls
    {!stability_tick} sends floors on the tick after they rise, so
    there the period is only the resend of unchanged floors; [Group]
    has no such tick and relies on the period alone.
    [semantic] and [evict_uncovered] go to every incarnation's
    {!Protocol.create}.
    [merge_spans], [divergences] and [slow_reports] are the driver's
    instruments (detached by default). *)

val protocol : 'p t -> 'p Protocol.t
(** The current incarnation's protocol (replaced by {!restart}). *)

val view : 'p t -> View.t

val is_member : 'p t -> bool

val is_joining : 'p t -> bool

val is_blocked : 'p t -> bool

val is_down : 'p t -> bool
(** True between {!halt} (or exclusion) and {!restart}. *)

val pending : 'p t -> int

val parked : 'p t -> bool
(** From the quorum-loss transition until the merge completes. *)

val parks : 'p t -> int

val divergences : 'p t -> int

val divergence_streak : 'p t -> int

val slow_reports : 'p t -> int

val evicting : 'p t -> int -> bool
(** The laggard rule is evicting this peer (its episode is open). *)

val multicast :
  'p t -> ?ann:Svs_obs.Annotation.t -> 'p -> ('p Types.data, [ `Blocked | `Not_member ]) result

val deliver : 'p t -> 'p Types.delivery option

val receive : 'p t -> src:int -> 'p Types.wire -> unit

val on_cons :
  'p t -> src:int -> view_id:int -> 'p Types.proposal Svs_consensus.Chandra_toueg.msg -> unit

val decided : 'p t -> view_id:int -> 'p Types.proposal -> unit

val on_suspicion : 'p t -> unit

val trigger_view_change : 'p t -> ?join:int list -> leave:int list -> unit -> unit

val request_join : 'p t -> contact:int -> unit

val drain : 'p t -> unit

val stability_tick : 'p t -> unit
(** The "floors rose" rule, for a host that ticks at loop speed:
    gossip [STABLE] if this member's receive floors rose since it last
    did, then trim what earlier gossip already made stable among the
    messages delivered since the last trim. Sends nothing while
    blocked or not a member, and nothing when the floors did not
    move, so an idle group stays silent. *)

val halt : 'p t -> unit
(** Crash or shutdown: inputs are ignored and consensus stops. *)

val park : 'p t -> unit
(** The quorum-loss transition. No-op unless a member. *)

val recovery : 'p t -> Protocol.recovery
(** The durable slice of the current protocol state. *)

val restart : 'p t -> ?recovery:Protocol.recovery -> unit -> unit
(** Swap in a fresh joiner (amnesiac without [recovery]), re-installing
    the state-transfer callback. *)

val set_state_transfer : 'p t -> (unit -> string option) -> unit

val set_state_digest : 'p t -> (unit -> int) -> unit

val digest : 'p t -> int
(** Installed view, merged floors and the application digest. *)

val note_digest : 'p t -> src:int -> view_id:int -> int -> unit

val check_divergence : 'p t -> unit
(** One evaluation round (the divergence timer calls this). *)
