(** Explicit-state DFS explorer over {!Model} choice traces.

    Stateless search: states are reconstructed by re-executing choice
    prefixes from the initial configuration, so the explorer needs no
    snapshot support from the cluster.  Two reductions keep the state
    space tractable:

    - a visited set keyed on {!Model.fingerprint} (canonical full-state
      digest), pruned under the standard sleep-set soundness condition
      (revisits are cut only when a previous visit explored with a
      subset of the current sleep set);
    - sleep-set partial-order reduction over
      {!Model.independent} — interleavings that only permute commuting
      transitions are explored once.

    Every leaf of the search (terminal, depth cutoff, visited prune,
    sleep exhaustion) is checked against the SVS contracts; terminal
    states additionally against convergence and, when a self-test
    mutation is armed, against the chaos oracle's log corruption. *)

type stats = {
  mutable states : int;  (** Distinct states expanded. *)
  mutable transitions : int;  (** Transitions executed (prefix replays excluded). *)
  mutable interleavings : int;  (** Maximal executions: terminals + depth cutoffs. *)
  mutable visited_hits : int;
  mutable sleep_skips : int;  (** Enabled transitions pruned by sleep sets. *)
  mutable depth_cutoffs : int;
  mutable max_depth_seen : int;
}

val pp_stats : Format.formatter -> stats -> unit

type outcome =
  | Exhausted  (** Full bounded state space explored, no violation. *)
  | State_limit  (** [max_states] expanded without a verdict. *)
  | Counterexample of {
      trace : Model.transition list;
      violations : Svs_core.Checker.violation list;
    }

type run = { outcome : outcome; stats : stats }

val explore :
  ?reduce:bool ->
  ?dedup:bool ->
  ?max_states:int ->
  ?mutation:Svs_chaos.Oracle.mutation ->
  ?progress:(stats -> unit) ->
  Model.config ->
  run
(** Exhaust the bounded configuration.  [reduce] (default true)
    enables the sleep-set reduction; [dedup] (default true) the
    fingerprint visited set.  [reduce:false dedup:false] is the naive
    DFS enumerating every interleaving — the baseline the self-tests
    compare against to show the reduction preserves verdicts while
    shrinking interleaving counts.  [mutation] arms the inverted
    self-test: at every terminal state the recorded log is corrupted
    the way a broken implementation would corrupt it, and the explorer
    must catch the oracle's violation — so [Counterexample] is the
    expected outcome.  [progress] is called every 1024 expanded
    states. *)

type replay_result =
  | Reproduced of Svs_core.Checker.violation list
  | Clean  (** Trace replayed feasibly but no violation. *)
  | Infeasible of { index : int; transition : Model.transition }
      (** The [index]-th transition was not enabled at that point. *)

val replay :
  ?mutation:Svs_chaos.Oracle.mutation ->
  Model.config ->
  Model.transition list ->
  replay_result
(** Re-execute a choice trace, validating each step against
    {!Model.enabled}, then check the end state (terminal checks
    included iff the trace ends in a terminal state). *)

val minimize :
  ?mutation:Svs_chaos.Oracle.mutation ->
  Model.config ->
  Model.transition list ->
  Model.transition list * Svs_core.Checker.violation list option
(** Greedily shrink a violating trace: repeatedly drop any single
    transition whose removal leaves the trace feasible and still
    violating, until no single removal survives.  Returns the
    minimized trace and the violations of its final replay (None only
    if the input trace did not violate to begin with). *)

(** {1 Trace files}

    A trace file is the magic line [# svs_mc trace v1], a [config ...]
    line carrying the bounds (and armed mutation, if any), then one
    {!Model.transition_to_string} line per choice.  Blank lines and
    [#] comments are ignored on read. *)

val write_trace :
  out_channel ->
  Model.config ->
  ?mutation:Svs_chaos.Oracle.mutation ->
  Model.transition list ->
  unit

val read_trace :
  in_channel ->
  ( Model.config * Svs_chaos.Oracle.mutation option * Model.transition list,
    string )
  result
