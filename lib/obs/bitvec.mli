(** Fixed-width bit vector used by the k-enumeration encoding (§4.2).

    Bit [d] (for [1 <= d <= k]) set in a message's vector means "this
    message obsoletes the d-th preceding message of the same sender".
    The representation supports the two operations the paper calls out
    as making k-enumeration efficient: shifted [or] (transitive
    composition) and membership tests. Bits shifted beyond [k] are
    silently dropped: that loses purging opportunities but never
    fabricates obsolescence, so it is always safe. *)

type t

val create : k:int -> t
(** All-zero vector of width [k] (distances 1..k). *)

val k : t -> int

val copy : t -> t

val set : t -> int -> unit
(** [set t d] marks distance [d]. Distances [> k t] are dropped;
    distances [< 1] raise [Invalid_argument]. *)

val get : t -> int -> bool
(** [get t d] is false for any [d] outside [1..k]. *)

val is_empty : t -> bool

val or_shifted : into:t -> t -> shift:int -> unit
(** [or_shifted ~into src ~shift] adds, for every distance [d] set in
    [src], the distance [d + shift] to [into] (dropping overflow).
    With [shift] = the distance from the newer message to [src]'s
    message, this composes obsolescence transitively. *)

val union : into:t -> t -> unit
(** [or_shifted ~shift:0]. *)

val distances : t -> int list
(** Set distances, ascending. *)

val next_set : t -> int -> int
(** [next_set t d]: the smallest set distance [>= d], or [0] if none.
    Walks the set bits without building {!distances}' list: a loop
    [let rec go d = match next_set t d with 0 -> () | d -> f d; go (d + 1)]
    allocates nothing. *)

val cardinal : t -> int

val equal : t -> t -> bool

val to_bytes : t -> string
(** Packed little-endian bitmap, [ceil (k/8)] bytes — the wire form
    whose compactness §4.2 argues for. *)

val of_bytes : k:int -> string -> t
(** Inverse of {!to_bytes}; the string must be exactly [ceil (k/8)]
    bytes. *)

val pp : Format.formatter -> t -> unit
