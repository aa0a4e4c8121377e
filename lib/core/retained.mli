(** The delivered messages of the current view, oldest first, that the
    PRED set may still have to echo: a message leaves when stability
    passes it ({!filter_in_place}) or when a later delivery covers it
    ({!push}).

    SVS asks every survivor of a view change to deliver some [m'] with
    [m ⊑ m'], so once this process has delivered [m'], retaining [m']
    is enough: [m] is {e evicted}. {!push} runs the forward probes of
    {!Svs_obs.Purge_index.plan} (the Tag lineage, the Enum list, the
    Kenum window) as point lookups into per-sender sn → slot int
    arrays. The index costs nothing until the view delivers its first
    annotated message (an unannotated stream never turns it on), and
    after that allocates nothing per message: it is rebuilt only when
    the store compacts. An evicted slot is overwritten and left dead
    until then; dead slots are compacted away once they outnumber the
    live ones. *)

type 'p t

val create : unit -> 'p t

val clear : 'p t -> unit
(** Empty the store and turn the index off (a view was installed). *)

val push : 'p t -> 'p Types.data -> ('a -> 'p Types.data -> unit) -> 'a -> unit
(** [push t d on_evict x] evicts every retained message [d] obsoletes,
    calling [on_evict x victim] for each, then retains [d]. [on_evict]
    is meant to be a top-level function, so a push allocates no
    closure. *)

val add : 'p t -> 'p Types.data -> unit
(** Retain a message and evict nothing: conventional View Synchrony,
    where nothing covers anything. *)

val filter_in_place : ('a -> 'p Types.data -> bool) -> 'a -> 'p t -> int
(** [filter_in_place keep x t] keeps the retained messages [d] with
    [keep x d], in order, and returns how many were dropped. [keep]
    sees each retained message once; like [push]'s [on_evict], it is
    meant to be a top-level function. The store keeps its array, even
    when emptied, and
    its free slots keep at most one dropped message alive. *)

val fold_right : ('p Types.data -> 'a -> 'a) -> 'p t -> 'a -> 'a
(** Over the retained messages, newest first. *)

val peak : 'p t -> int
(** The most messages retained at once since creation. *)
