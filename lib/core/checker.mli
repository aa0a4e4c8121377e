(** Execution-trace oracle for the paper's §3.2 safety properties.

    Tests record every multicast, delivery and view installation of an
    execution; {!verify} then checks:

    - {b Integrity}: no creation (every delivered message was
      multicast), no duplication (per process).
    - {b FIFO} (clause i of FIFO Semantic Reliability): per process and
      per sender, deliveries occur in strictly increasing sequence
      order.
    - {b Semantic View Synchrony}: if [p] installs consecutive views
      [v_i], [v_{i+1}] and delivers [m] in [v_i], every process [q]
      installing both views delivers some [m'] with [m ⊑ m'] before
      installing [v_{i+1}].
    - {b FIFO Semantic Reliability} (clause ii): if [p] installs both
      views and delivers [m'] in [v_i], then for every message [m]
      multicast before [m'] by the same sender, [p] delivers some
      [m''] with [m ⊑ m''] before installing [v_{i+1}].
    - {b View agreement}: processes installing the same view number
      agree on its membership.
    - {b No split brain}: the installed views form a single
      totally-ordered primary chain — every installed view shares at
      least one installer with the installed view of the next lower id.
      A minority side that installed its own view after a partition has
      no such witness (none of its members installed the primary's
      views since the split), so two concurrent primary components are
      flagged. A parked member (see {!Group.is_parked}) never installs
      a view nor delivers fresh messages, which is what keeps this
      property checkable from installation logs alone.

    Coverage [⊑] is checked against the {e transitive closure} of the
    relation encoded by the annotations: the encodings are
    under-approximations of the application's transitive relation, so
    the closure is the strongest relation the protocol may rely on.

    {!verify_strict_vs} additionally demands classical View Synchrony
    (identical delivery sets between views) — it must pass whenever
    purging is disabled or the relation is empty, demonstrating the
    paper's claim that SVS with an empty relation {e is} VS.

    {b Crash recovery.} A process's log may span several incarnations:
    a crash followed by JOIN/SYNC readmission shows up as a view-id
    {e gap} between consecutive installs (the readmitting view is at
    least two past the last one installed before the crash). The
    pairwise checks (SVS, FIFO-SR clause ii, strict VS) quantify only
    over genuinely consecutive view ids — never across a crash — and
    FIFO-SR does not owe a rejoined incarnation predecessors multicast
    before its readmission view (the sponsor's state transfer settles
    those). Integrity and per-sender FIFO order remain global across
    incarnations, so a process restarted {e without} its durable state
    that re-delivers or re-numbers messages is still flagged
    ([Duplicated] / [Fifo_order]). *)

type t

type meta = {
  id : Svs_obs.Msg_id.t;
  ann : Svs_obs.Annotation.t;
  view_id : int;
}

(** One broken safety clause. [view_id] always names the view [v_i] of
    the violated view pair [(v_i, v_{i+1})]; a chaos report can thus
    point at the exact transition that lost a message. *)
type violation =
  | Created of { p : int; id : Svs_obs.Msg_id.t }
  | Duplicated of { p : int; id : Svs_obs.Msg_id.t }
  | Fifo_order of { p : int; first : Svs_obs.Msg_id.t; second : Svs_obs.Msg_id.t }
  | Svs_hole of { p : int; q : int; view_id : int; missing : Svs_obs.Msg_id.t }
  | Fifo_sr_hole of {
      p : int;
      view_id : int;
      missing : Svs_obs.Msg_id.t;
      because : Svs_obs.Msg_id.t;
    }
  | View_disagreement of { p : int; q : int; view_id : int }
  | Vs_mismatch of { p : int; q : int; view_id : int; missing : Svs_obs.Msg_id.t }
  | Split_brain of { p : int; view_id : int; prev_view_id : int }
      (** [p] installed [view_id], but no process installed both it and
          [prev_view_id] (the next lower installed id): the execution
          has two concurrent primary components. *)
  | Not_converged of { p : int; last_view_id : int; final_view_id : int }
      (** From {!check_converged}: survivor [p] did not end the run in
          the final primary view. *)

val pp_violation : Format.formatter -> violation -> unit

val violation_to_string : violation -> string

val create : unit -> t

val record_multicast : t -> meta -> unit

val record_delivery : t -> p:int -> meta -> unit

val record_install : t -> p:int -> View.t -> unit
(** Must also be called once per process with its initial view, before
    any of its deliveries. *)

val verify : t -> violation list
(** Empty list = all SVS properties hold. *)

val verify_strict_vs : t -> violation list
(** {!verify} plus classical view synchrony (equal per-view delivery
    sets among processes installing the next view). *)

val check_converged : t -> survivors:int list -> violation list
(** Liveness after heal (opt-in, not part of {!verify} because only
    the scenario knows who should have made it back): every process in
    [survivors] must have ended the run in the final primary view —
    its last recorded install is the globally maximal view id and that
    view lists it as a member. Returns one [Not_converged] per
    straggler. *)

val deliveries_in_view : t -> p:int -> view_id:int -> meta list
(** For tests: what [p] delivered while in the given view. *)

(** {1 The coverage relation}

    The building blocks {!verify} checks with, exposed so a mutation
    self-test can pick a corruption the checks provably flag. *)

val build_successors : t -> Svs_obs.Msg_id.t -> Svs_obs.Msg_id.t list
(** [build_successors t] precomputes, over every recorded multicast,
    the messages that {e directly} obsolete a given one (quadratic in
    the multicasts). *)

val covered :
  (Svs_obs.Msg_id.t -> Svs_obs.Msg_id.t list) ->
  Svs_obs.Msg_id.t ->
  Svs_obs.Msg_id.Set.t ->
  bool
(** [covered successors m targets]: does some [m'] with [m ⊑* m'] (the
    transitive closure, [m] itself included) belong to [targets]? *)

type segment = { view : View.t; deliveries : meta list  (** In order. *) }

val segments : t -> p:int -> segment list
(** [p]'s log split at its installs: one segment per installed view,
    holding the deliveries between that install and the next.
    @raise Invalid_argument if [p] delivered before its first install. *)

(** {1 Trace export}

    Read access to the recorded execution, in recording order — enough
    to replay a (possibly mutated) copy of the trace into a fresh
    checker. The chaos oracle uses this to prove its own sensitivity:
    re-recording the run minus one safety-relevant delivery must flip
    the verdict. *)

type recorded = Delivered of meta | Installed of View.t

val multicast_log : t -> meta list
(** Every recorded multicast, oldest first. *)

val processes : t -> int list
(** Processes with at least one recorded event, ascending. *)

val process_log : t -> p:int -> recorded list
(** [p]'s deliveries and installs, oldest first. *)
