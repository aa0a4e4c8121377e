(** Imperative binary min-heap over an arbitrary element type.

    The heap is parameterised by a strict "less than or equal" ordering
    supplied at creation time. Used by {!Engine} as the event queue and
    available to other libraries needing a priority queue. *)

type 'a t

val create : leq:('a -> 'a -> bool) -> unit -> 'a t
(** [create ~leq ()] is an empty heap ordered by [leq] (smallest first). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** [peek h] is the minimum element, without removing it. *)

val min_exn : 'a t -> 'a
(** [peek] without the option, so it allocates nothing.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns the minimum element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
(** Iterates in unspecified (heap) order. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_sorted_list : 'a t -> 'a list
(** [to_sorted_list h] is all elements in ascending order; O(n log n),
    does not modify [h]. *)
