(** The chaos oracle's inverted self-checks, as one table.

    Each row turns off exactly one defence — a {!Runner.config} switch,
    an {!Oracle.mutation} of the recorded log, or one {!Hostile}
    scenario's defence — and runs its scenarios. The oracle must then
    flag every run the missing defence should break: that is how we
    know it catches real faults rather than passing by blindness.

    One rule judges every row ({!judge}): every {e eligible} run must
    be {e caught}, every other run must stay {!clean}, and at least one
    run must be eligible. *)

(** One checked run: a seeded sweep run or one hostile-input
    scenario. *)
type run = Sweep of Runner.outcome | Hostile of Hostile.report

val flagged : run -> bool
(** The oracle or a hostile scenario's checks failed the run. *)

val clean : run -> bool
(** Not {!flagged}, and within any backlog budget. *)

(** The one defence a row turns off, and what it runs without it. *)
type defence =
  | Config of {
      off : Runner.config -> Runner.config;
      scenarios : Scenario.t list;
      modes : Oracle.mode list;
    }
      (** Clears a {!Runner.config} field ([recover], [merge], [shed])
          and sweeps these default scenarios and modes. *)
  | Mutation of {
      mutation : Oracle.mutation;
      scenarios : Scenario.t list;
      modes : Oracle.mode list;
    }
      (** Corrupts each recorded log of a sweep over these default
          scenarios and modes before the oracle checks it. *)
  | Invert of string
      (** Runs every {!Hostile.names} scenario, with this one's defence
          off. *)

type t = {
  name : string;
  doc : string;
  defence : defence;
  eligible : run -> bool;  (** The run must be caught. *)
  caught : run -> bool;  (** The run shows the missing defence. *)
}

val all : t list
(** [drop-cover], [split-brain], [evict-uncovered], [no-merge],
    [no-recovery], [no-shed], [no-quarantine], [no-salvage],
    [no-heal]. *)

val run :
  ?tracer:Svs_telemetry.Trace.t ->
  ?on_run:(run -> unit) ->
  ?scenarios:Scenario.t list ->
  ?modes:Oracle.mode list ->
  config:Runner.config ->
  seeds:int list ->
  t ->
  run list
(** The row's runs with its defence off and every other defence on.
    [scenarios] and [modes] override a sweep row's defaults; an
    {!Invert} row runs the hostile suite once and takes none of
    [scenarios], [modes] and [seeds]. Each run is handed to [on_run] as it
    completes. @raise Failure as {!Runner.sweep}. *)

val hostile_suite : ?on_run:(run -> unit) -> unit -> run list
(** Every hostile scenario with every defence on: the control for the
    hostile rows. *)

type verdict = {
  eligible : int;  (** Runs that had to be caught. *)
  missed : run list;  (** Eligible runs the oracle let pass. *)
  unclean : run list;  (** Other runs that were not {!clean}. *)
}

val judge : t -> run list -> verdict

val passed : verdict -> bool
(** At least one eligible run, none missed, none unclean. *)
