(** The SVS safety oracle: machine-checks the paper's §4 contracts over
    a recorded chaos run and reports failures replayably.

    The three contracts (checked via {!Svs_core.Checker} against the
    transitive closure of the annotation-encoded relation):

    - {b Semantic View Synchrony} (§4.1): if [p] installs consecutive
      views [v_i], [v_{i+1}] and delivers [m] in [v_i], every process
      [q] installing both views delivers some [m'] with [m ⊑ m']
      before installing [v_{i+1}] — surviving installers end each view
      with obsolescence-equivalent delivery sets.
    - {b FIFO Semantic Reliability} (§4.1): per-sender FIFO order, and
      omissions only of obsolete messages — if [p] delivers [m'] in
      [v_i], then for every [m] multicast earlier by the same sender,
      [p] delivers some [m''] with [m ⊑ m''] before installing
      [v_{i+1}].
    - {b Integrity}: no creation, no duplication (per process).

    In {!Vs} mode (empty relation — every annotation [Unrelated]) the
    oracle additionally demands classical View Synchrony: identical
    per-view delivery sets, demonstrating the paper's claim that SVS
    with an empty relation {e is} VS.

    A failing report carries the seed, the scenario name, the violating
    view pair(s) and the offending message ids — everything needed to
    replay the exact run. *)

type mode =
  | Vs  (** Empty relation: strict View Synchrony must hold. *)
  | Svs  (** Annotated run: the three SVS contracts must hold. *)

val mode_label : mode -> string
(** ["vs"] / ["svs"]. *)

val mode_of_label : string -> mode option

(** Self-test mutations: corrupt the recorded run the way a broken
    implementation would, to prove the oracle actually bites. *)
type mutation =
  | Drop_cover
      (** Simulate an over-eager purge: remove one delivery whose
          absence provably breaks the view-pair equivalence (a message
          another surviving installer delivered, with no other cover in
          the mutated log). *)
  | Duplicate_after_restart
      (** Simulate a lost write-ahead log: re-deliver, right after a
          process's crash–rejoin readmission, a message its previous
          incarnation had already delivered. Integrity (no duplication)
          must flag it. Requires a run with an actual rejoin (e.g. the
          [crash-restart] scenario). *)
  | Split_brain
      (** Simulate a minority that elects itself: append to one
          process's log the install of a forged view — id one past the
          global maximum, membership just that process — that shares no
          installer with the real primary chain. Prefers a process that
          never installed the final view (the parked minority of an
          unhealed split); if all processes converged, a log is first
          truncated at a crash–rejoin incarnation boundary. The no-
          split-brain check must flag it. In the report's [mutated]
          field the message id stands in for [(process, forged view
          id)]. *)
  | Evict_uncovered
      (** Simulate an over-eager eviction: the run itself is made with
          every member's protocol dropping its whole delivered store
          from the PRED bookkeeping at each delivery, covered or not
          ({!Svs_core.Group.config} [evict_uncovered]); the recorded
          log is checked as it is. A view change that must carry a
          message only some survivors delivered then leaves a hole. *)

val mutation_label : mutation -> string
(** ["drop-cover"], ["dup-restart"], ["split-brain"],
    ["evict-uncovered"]: the names
    [svs_mc --mutate], its trace files and [svs_chaos --self-test]
    use. *)

val mutation_of_label : string -> mutation option

type report = {
  mode : mode;
  seed : int;
  scenario : string;
  violations : Svs_core.Checker.violation list;
  deliveries : int;  (** Data deliveries checked. *)
  installs : int;  (** View installations checked. *)
  mutated : (int * Svs_obs.Msg_id.t) option;
      (** The (process, message id) removed by a {!mutation}. *)
  replay_args : string list;
      (** What else the run was made with, as [svs_chaos] arguments
          (a self-test, a non-default group size or horizon): [[]]
          from {!check}, filled in by {!Runner} and {!Self_test}. *)
}

val check :
  ?mutation:mutation ->
  ?expect_converged:int list ->
  mode:mode ->
  seed:int ->
  scenario:string ->
  Svs_core.Checker.t ->
  report
(** Verify the recorded run. With [expect_converged] the liveness-
    after-heal check runs too: every listed process must have ended the
    run in the final primary view ({!Svs_core.Checker.check_converged}).
    Raises [Failure] if a [mutation] was requested but the run contains
    nothing to corrupt (no safety-relevant delivery for [Drop_cover];
    no incarnation boundary for [Duplicate_after_restart]; no process
    log at all for [Split_brain]). *)

val ok : report -> bool

val view_pair : Svs_core.Checker.violation -> (int * int) option
(** The violated view transition [(v_i, v_{i+1})], when the clause is
    about one. *)

val replay : report -> string
(** The [svs_chaos] command line that reruns exactly this run: its
    scenario, mode and seed, then its [replay_args]. *)

val pp_report : Format.formatter -> report -> unit
(** One line for a pass; seed + scenario + every violation with its
    view pair, and the {!replay} line, for a failure. *)
