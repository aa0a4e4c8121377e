(** Declarative, seeded fault schedules.

    A scenario is a named generator: given a random stream, a node
    count and a virtual-time horizon, it produces a timed list of fault
    actions. All randomness comes from the supplied {!Svs_sim.Rng.t},
    so a plan — and hence a whole chaos run — is a pure function of the
    seed: any failure the oracle reports is replayable bit-for-bit from
    the printed seed.

    Plans obey the liveness discipline the safety oracle needs to make
    progress through the run:
    - node 0 (the anchor producer) is never crashed, paused, isolated
      or removed — in a [Split] it is always in the majority set;
    - at least two members survive every plan;
    - every [Pause] has a matching [Resume], every [Partition] a
      matching [Heal], and every latency spike a restore, all strictly
      before the horizon (the injector's settle pass re-enforces this
      defensively) — {e except} in scenarios that opt out with
      [heal_at_settle = false], whose group splits deliberately outlive
      the run to prove the minority stays parked. *)

type action =
  | Crash of int  (** Crash-stop: silenced for the rest of the run. *)
  | Pause of int
      (** Freeze the node's receive side (a stalled-but-running
          process); inbound traffic queues at the network. *)
  | Resume of int
  | Partition of int * int  (** Symmetric link partition; messages held. *)
  | Heal of int * int
  | Split of int list list
      (** Set-based group split: every cross-set link partitions, and
          (because the runner's oracle detector is otherwise oblivious
          to partitions) all nodes outside the primary set — the one
          containing node 0 — are marked crashed at it, the way a real
          detector on the majority side would write off an unreachable
          minority. A [Split] while one is standing heals the previous
          one first. *)
  | Heal_split
      (** Reconnect every pair the standing [Split] disconnected. The
          detector is {e not} touched: readmission of parked members
          goes through the JOIN/SYNC path, which clears suspicion once
          the minority member is excluded from every surviving view. *)
  | Leave of { initiator : int; node : int }
      (** Membership churn: [initiator] asks the group to reconfigure
          [node] out. *)
  | Rejoin of int
      (** Restart a crashed or excluded node as a new incarnation and
          drive JOIN requests until the group readmits it. Skipped if
          the node is still a member; deferred (retried) while its
          exclusion is still in progress. *)
  | Set_latency of Svs_net.Latency.t
      (** Network-wide latency change (a spike). *)
  | Restore_latency
      (** Put back the latency model the network had when injection
          started. *)

type timed = { at : float; action : action }

type t = {
  name : string;
  doc : string;
  plan : rng:Svs_sim.Rng.t -> n:int -> horizon:float -> timed list;
  heal_at_settle : bool;
      (** Whether the injector's settle pass may heal partitions left
          standing at the horizon (the default, [true]). Split
          scenarios that must prove a minority {e stays} parked opt
          out. Pauses, latency spikes and the paused-receive drain are
          always settled regardless. *)
  park_timeout : float option;
      (** Park deadline handed to {!Svs_core.Group}'s config for runs
          of this scenario ([None] = parking off, the default). *)
  expect_reconverge : bool;
      (** When [true], the oracle additionally demands that every node
          alive at the end of the run ends it in the final primary
          view ({!Svs_core.Checker.check_converged}) — the
          liveness-after-heal contract of the merge path. *)
  shed_limit : int option;
      (** Network-level semantic shedding for this scenario's runs:
          handed to {!Svs_core.Group}'s config as [shed] (unless the
          runner disables shedding). [None] (the default) leaves
          backlogged queues unbounded. *)
  backlog_budget : int option;
      (** Overload acceptance bound: the peak paused-inbox data
          backlog (over all nodes, sampled by the runner) a run may
          reach with shedding on — and must {e exceed} with shedding
          off, which is the inverted [no-shed] self-test. [None]:
          no budget verdict. *)
}

val action_kind : action -> string
(** Short identifier ([crash], [pause], [partition], ...) used for the
    [Fault] trace event and reports. *)

val pp_action : Format.formatter -> action -> unit

val pp_timed : Format.formatter -> timed -> unit

(** {1 Built-in scenarios} *)

val calm : t
(** No faults — the baseline the others are measured against. *)

val crash : t
(** Crash-stop a random subset (≥ 1, always leaving ≥ 2 survivors) at
    random times. *)

val partition_heal : t
(** One to three link partitions, each healed before the horizon;
    windows may overlap. *)

val slow_receiver : t
(** Long receive pauses (comparable to the horizon) on one or two
    nodes — the paper's perturbed-receiver story. *)

val churn : t
(** A sequence of voluntary membership removals spread over the run. *)

val crash_restart : t
(** Crash a random subset, then restart each victim from its durable
    state and readmit it via the JOIN/SYNC path, all before the
    horizon. The checked run therefore contains crash, exclusion,
    rejoin and post-rejoin traffic for every victim. *)

val exclude_rejoin : t
(** Voluntarily exclude a random subset via view changes, then readmit
    each — the membership round trip without any crash. *)

val group_split : t
(** One majority/minority split (node 0 on the majority side), never
    healed: the majority must keep delivering while the minority parks
    and stays parked, its JOIN probes held on the dead links. Runs
    with a 1 s park deadline and [heal_at_settle = false]. *)

val split_heal_merge : t
(** Split long enough for the minority to park and turn into probing
    joiners, then heal well before the horizon: the held JOIN probes
    deliver at the heal and the whole group must re-converge to a
    single primary view ([expect_reconverge]). *)

val flapping_split : t
(** Two to three split/heal cycles with fresh random sets each time,
    short enough that heals sometimes land before the park deadline —
    exercising both the parked-then-merged and healed-in-place paths —
    with re-convergence demanded after the final heal. *)

val latency_spikes : t
(** Repeated windows in which the base latency is replaced by a much
    slower distribution, then restored. *)

val overload : t
(** One member stops reading early and stays wedged for ~60% of the
    run while every member keeps publishing. Runs with semantic
    shedding on ([shed_limit]) and a [backlog_budget] the victim's
    data backlog must stay under — and must blow through when the
    runner disables shedding (self-test [no-shed]), proving the verdict
    measures shedding. *)

val overload_mayhem : t
(** The wedged consumer composed with link partitions and latency
    spikes, shedding on but no budget: safety (the oracle's contracts)
    under composition is the point, not the bound. *)

val mayhem : t
(** The union of all of the above drawn from one stream: crashes,
    partitions, pauses, churn and spikes in a single run. *)

val all : t list
(** Every built-in scenario, [calm] first. *)

val faulty : t list
(** Every built-in except [calm]: the default sweep. *)

val find : string -> t option
(** Look up a built-in by name ([crash], [partition-heal], ...). *)
