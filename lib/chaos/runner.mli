(** Drives seeded chaos runs end to end: build a simulated cluster,
    run a multicast workload under a {!Scenario}'s fault plan, then
    hand the recorded trace to the {!Oracle}.

    Every run is a pure function of [(config, mode, scenario, seed)]:
    the engine seed feeds the workload stream, the fault plan and the
    network, so a failing seed printed by the oracle replays the exact
    execution. *)

type config = {
  nodes : int;  (** Group size (members [0 .. nodes-1]). *)
  horizon : float;  (** Fault + workload window (virtual seconds). *)
  settle : float;  (** Quiet drain period after the horizon. *)
  send_period : float;  (** Per-producer multicast period. *)
  k : int;  (** k-enumeration window for SVS-mode annotations. *)
  obsolete_bias : float;
      (** Probability an SVS-mode message directly obsoletes its
          sender's previous message. *)
  reconfigure : float option;
      (** When set, trigger one benign (no-leave) view change at this
          fraction of the horizon, so scenarios whose faults never
          force a membership change still exercise the view-pair
          contracts (with one everlasting view they hold vacuously). *)
  recover : bool;
      (** Whether a [Rejoin] restarts its victim from durable state
          (default) or amnesiac — [false] models a node that lost its
          write-ahead log, whose duplicate deliveries the oracle must
          flag. *)
  merge : bool;
      (** Whether a parked member turns into a probing joiner and
          merges back at the heal (default). [false] leaves parked
          members parked forever — the no-merge self-check: every
          scenario that expects re-convergence must then fail with
          [Not_converged]. *)
  shed : bool;
      (** Whether to honor the scenario's [shed_limit] (default). With
          [false] the same plans run with semantic shedding disabled —
          the inverted [no-shed] self-test: overload scenarios with
          a [backlog_budget] must then exceed it. *)
}

val default_config : config
(** 5 nodes, 12 s horizon, 6 s settle, 50 ms sends, k = 8, bias 0.7,
    benign reconfiguration at 45% of the horizon, recovery and merge
    on. *)

type outcome = {
  report : Oracle.report;
  faults : int;  (** Fault actions actually applied. *)
  restarts : int;  (** Crash–restart rejoins actually applied. *)
  parked : int;  (** Quorum-loss park transitions during the run. *)
  sent : int;  (** Messages multicast by the workload. *)
  purged : int;  (** Deliveries saved by obsolescence (sum over nodes). *)
  shed : int;
      (** Queued-but-undelivered data messages the network shed as
          semantically obsolete (whole cluster). *)
  peak_backlog : int;
      (** Largest paused-inbox data backlog observed at any single
          node, sampled at half the send period. *)
  over_budget : bool option;
      (** [Some true] when [peak_backlog] exceeded the scenario's
          [backlog_budget]; [None] when the scenario sets no budget. *)
  events : int;  (** Engine events executed. *)
  flight : Svs_telemetry.Trace.record list;
      (** Flight recorder: the run's last protocol events (up to 2048,
          virtual-time stamps), kept by a ring behind the caller's
          tracer. Populated only when the oracle flagged the run — a
          passing run's postmortem is nobody's business — so failures
          ship a replayable seed {e and} what the cluster was doing
          just before the violation. *)
}

val run_one :
  ?mutation:Oracle.mutation ->
  ?tracer:Svs_telemetry.Trace.t ->
  ?config:config ->
  mode:Oracle.mode ->
  scenario:Scenario.t ->
  seed:int ->
  unit ->
  outcome
(** One seeded chaos run. In {!Oracle.Vs} mode the workload sends
    [Unrelated] annotations and the oracle demands classical View
    Synchrony; in {!Oracle.Svs} mode senders build k-enumeration
    annotations with a {!Svs_obs.Kenum_stream}. *)

val sweep :
  ?mutation:Oracle.mutation ->
  ?tracer:Svs_telemetry.Trace.t ->
  ?config:config ->
  ?on_run:(outcome -> unit) ->
  modes:Oracle.mode list ->
  scenarios:Scenario.t list ->
  seeds:int list ->
  unit ->
  outcome list
(** The full grid, in [scenario * mode * seed] order, each outcome
    also handed to [on_run] as it completes. @raise Failure naming the
    run's seed, scenario and mode when {!run_one} fails. *)

val pp_table : Format.formatter -> outcome list -> unit
(** One row per [scenario * mode]: seeds run, pass/fail, faults,
    messages, deliveries, purged. *)
