(** Indexes that drive purging in O(|predecessors|) per insert.

    The naive purge re-scans the whole delivery queue on every insert,
    making the paper's "cheap" operation O(queue). All three encodings
    of §4.2 have bounded fan-in — a tag names one lineage, an
    enumeration a finite predecessor list, a k-enumeration a k-wide
    window — so the pairs a fresh message can participate in are
    reachable by point lookups:

    - per sender, a tag map holding the one queued entry per tag
      lineage ([Tag] both directions);
    - per sender, an sn map over all queued entries ([Enum] and
      [Kenum] forward probes), a hash table rather than a sorted ring,
      since a sender's sns may be indexed in any order;
    - per sender, a reverse map from every enumerated sn of that
      sender to the queued [Enum] entries naming it (the cross-sender
      reverse direction), skipped while no [Enum] entry is queued;
    - per-sender high-water marks bounding the [Kenum] reverse window
      probe (it short-circuits whenever nothing is queued above the
      fresh sequence number — always, for in-order senders).

    Every map is keyed by plain ints, so no probe builds a tuple key.
    An unannotated message has nothing to obsolete: {!plan} runs only
    the reverse probes and allocates nothing, and
    {!add} costs one entry and one hash bucket. A view's tables
    outlive a drained queue (only the high-water marks reset), so a
    queue that empties after every message reuses them.

    The structure is parametric in ['h], the queue handle type (e.g.
    [Dq.handle]), so it composes with any buffer that supports O(1)
    removal by handle.

    Invariants the caller maintains: queued ids are unique per view
    (the protocol's FIFO floors guarantee it); every insert runs
    {!plan} and removes the victims before {!add}ing the fresh entry,
    keeping the queue purge-closed; every entry leaving the queue for
    any reason is {!remove}d. *)

type 'h t

type 'h victim = { victim_id : Msg_id.t; victim_ann : Annotation.t; victim_handle : 'h }

val create : unit -> 'h t

val add : 'h t -> view:int -> id:Msg_id.t -> ann:Annotation.t -> 'h -> seq:int -> unit
(** Register a queued entry. [seq] is its queue position stamp
    ({!Dq.handle_seq}): {!plan} sorts victims by it so purge effects
    (counters, trace events) come out in queue order. *)

val remove : 'h t -> view:int -> id:Msg_id.t -> ann:Annotation.t -> unit
(** Unregister an entry that left the queue (delivered or purged).
    A no-op for ids that were never added. *)

val plan : 'h t -> view:int -> id:Msg_id.t -> ann:Annotation.t -> 'h victim list * bool
(** For a fresh message about to join [view]'s queue: the queued
    entries it obsoletes (front-to-back) and whether a queued entry
    obsoletes {e it} (in which case the fresh message must be dropped
    after its victims are purged — exactly the pairwise semantics).
    The fresh message must not be {!add}ed yet. *)

val cardinal : 'h t -> view:int -> int
(** Indexed entries of one view (for tests). *)
