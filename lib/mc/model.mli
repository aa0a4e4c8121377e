(** The bounded SVS system the model checker enumerates.

    A {!sys} wraps one {!Svs_core.Group.cluster} in manual-network mode
    (every packet waits on its link until explicitly delivered) plus
    the remaining fault/send budgets. {!enabled} lists the choices open
    in the current state in a deterministic order; {!apply} executes
    one; a state is therefore reproducible from the initial
    configuration and the list of choices taken — the choice trace that
    replaces the chaos harness's RNG seed. See MODELCHECK.md. *)

type config = {
  nodes : int;
  multicasts : int;  (** Total data multicasts (scripted, see below). *)
  crashes : int;
  restarts : int;  (** Crash–recovery rejoins ([recover:true]). *)
  probes : int;  (** JOIN-request budget shared by all joiners. *)
  partitions : (int * int) list;  (** Link pairs that may be cut (once each). *)
  heals : bool;  (** Whether cut links may heal. *)
  mode : Svs_chaos.Oracle.mode;
      (** [Svs]: purging on; [Vs]: plain VS, checked with the strict
          (empty-relation) contract. *)
  chain : bool;
      (** In [Svs] mode, each multicast obsoletes the sender's previous
          one (k-enumeration, direct distance 1). *)
  shed : int option;
      (** Semantic shedding threshold for the manual network's held
          links ([None]: off). With shedding on, the explorer proves
          the prefix-safe shed rule holds under every interleaving. *)
  max_depth : int;
}

val default : config
(** The acceptance configuration: 3 nodes, 2 multicasts, 1 crash. *)

(** One enumerated choice. [Tick k] runs the k-th event of the
    engine's ready group (arbiter decision upcalls are the only
    scheduled events here), so equal-timestamp ties are enumerated
    rather than fixed by scheduling order. The sender of [Multicast]
    is redundant with the state (smallest unblocked member) but kept
    in the descriptor so traces read on their own. *)
type transition =
  | Deliver of { src : int; dst : int }
  | Tick of int
  | Multicast of int
  | Crash of int
  | Restart of int
  | Probe of { node : int; contact : int }
  | Cut of int * int
  | Heal of int * int

val transition_to_string : transition -> string
(** One-line form used in trace files, e.g. ["deliver 0 2"]. *)

val transition_of_string : string -> transition option

val pp_transition : Format.formatter -> transition -> unit

type sys

val make : ?mutation:Svs_chaos.Oracle.mutation -> config -> sys
(** A fresh system in its initial state (all nodes members of view 0,
    nothing in flight). Deterministic: two [make]s of the same config
    behave identically under the same choices. With [mutation] =
    [Evict_uncovered] every member runs the broken eviction the
    self-test arms; other mutations corrupt the log, not the run. *)

val enabled : sys -> transition list
(** The choices open in the current state, in a fixed deterministic
    order (environment, ticks, deliveries by link, multicast). Empty
    means the state is terminal: quiescent with all budgets consumed
    or unusable. *)

val apply : sys -> transition -> unit
(** Execute one choice and hand every deliverable message to the
    applications (eager delivery keeps the checker log complete at
    every cut). Raises [Invalid_argument] if the transition is not
    currently enabled (replays validate against {!enabled} first). *)

val fingerprint : sys -> string
(** Canonical digest of the full system state — per-node protocol
    state, in-flight traffic per link, detector/consensus/engine
    state, remaining budgets. Equal fingerprints mean identical
    behaviour under every future choice sequence. *)

val independent : sys -> transition -> transition -> bool
(** Whether the two transitions (both enabled in the current state)
    commute — the sleep-set reduction's independence relation. Only
    high-traffic commutations are claimed (DATA deliveries to distinct
    destinations, multicast vs. delivery elsewhere); everything else
    is conservatively dependent. *)

val checker : sys -> Svs_core.Checker.t

val survivors : sys -> int list
(** Current members — the processes the convergence contract binds. *)

val converged_checkable : sys -> bool
(** False while a cut is still active: an unhealed partition
    legitimately leaves members apart, so convergence is only checked
    on terminal states with all links up. *)

val payload : int -> string
(** The injective payload encoding used for fingerprints. *)
