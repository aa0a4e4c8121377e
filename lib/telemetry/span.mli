(** Offline analysis of {!Trace} streams: merge per-node JSONL traces,
    reconstruct per-message lifecycle timelines, and summarise the
    numbers the paper's argument is about — end-to-end delivery
    latency, stability lag (a message evicted as covered counts as
    covered, not as never stable), purge latency and effectiveness, blocked
    and view-change spans.

    Every multicast already carries a stable identity (sender
    incarnation × sequence number), so records from different nodes
    correlate without any extra wire field: a [Multicast] at the
    sender is the [submit] instant, each [Deliver] elsewhere closes a
    latency span, [StableMsg] closes the stability span and [Purge]
    the obsolescence span. Timestamps are whatever clock stamped the
    traces — wall time in the runtime, so cross-node spans are
    meaningful on one machine (or NTP-close ones). *)

(** One message's reconstructed lifecycle. Node/time pairs are in
    trace order; absent phases are empty. *)
type timeline = {
  sender : int;
  sn : int;
  submit : float option;  (** [Multicast] time at the sender. *)
  tx : (int * float) list;  (** (destination, handed to transport). *)
  rx : (int * float) list;  (** (node, arrival). *)
  deliver : (int * float) list;  (** (node, delivered to app). *)
  stable : (int * float) list;  (** (node, declared stable). *)
  purged : (int * float) list;  (** (node, purged as obsolete). *)
  evicted : (int * float) list;
      (** (node, evicted from the PRED bookkeeping because a later
          delivery there covers it). Such a message is covered, not
          stuck: it needs no [stable]. *)
  shed : (int * float) list;
      (** (peer, shed from a transport queue towards that peer). A
          [tx] with no [deliver] at a shedding peer is expected, not
          an anomaly: a cover reached the peer instead. *)
}

(** Exact order statistics over a span population (seconds). [p50] and
    [p99] use the nearest-rank method, so hand-computed fixtures match
    bit-for-bit. *)
type stat = { count : int; mean : float; p50 : float; p99 : float; max : float }

type anomaly =
  | Never_stable of { messages : int }
      (** Messages delivered somewhere but never declared stable nor
          evicted anywhere, while the trace shows stability tracking
          was active. A small tail is normal in a finite run; a large
          count means floor gossip is not converging. *)
  | Floor_regression of { node : int; sender : int; sn : int; prev : int }
      (** [node] delivered [sn] from [sender] after already delivering
          [prev >= sn] — a FIFO/duplicate violation. *)
  | Long_block of { node : int; view_id : int; span : float }
      (** A blocked period (first INIT to installation) exceeded the
          analysis threshold. *)

type report = {
  nodes : int list;  (** Every node id seen in the traces. *)
  events : int;  (** Records analysed. *)
  messages : int;  (** Distinct submitted messages. *)
  deliveries : int;
  purges : int;
  evictions : int;  (** Delivered messages evicted as covered ([Evict]). *)
  sheds : int;  (** Frames shed from transport queues ([Shed] events). *)
  shed_effectiveness : float;
      (** Fraction of per-peer transmissions semantic shedding saved:
          [sheds /. (sheds + tx)]. *)
  span : float;  (** First submit to last delivery (seconds). *)
  msgs_per_s : float;  (** [deliveries /. span]. *)
  delivery_latency : stat option;  (** submit → deliver, every node. *)
  remote_latency : stat option;  (** submit → deliver, node ≠ sender. *)
  stability_lag : stat option;  (** submit → first stable. *)
  purge_latency : stat option;  (** submit → purge. *)
  purge_effectiveness : float;
      (** Fraction of accounted message outcomes that were purges:
          [purges /. (purges + deliveries)]. *)
  view_changes : int;  (** Distinct views installed. *)
  view_spans : stat option;  (** Block → next install, per node. *)
  merge_spans : stat option;  (** Parked durations from [Merge]. *)
  anomalies : anomaly list;
}

val load_file : string -> Trace.record list
(** Parse a JSONL trace file, skipping unparseable lines. Raises
    [Sys_error] if the file cannot be read. *)

val load_file_counted : string -> Trace.record list * int
(** Like {!load_file}, also returning how many non-empty lines failed
    to parse (truncated or corrupt — flight dumps from crashed nodes
    routinely end mid-line), so callers can warn instead of silently
    under-reading. *)

val timelines : Trace.record list list -> timeline list
(** Merge per-node record streams and reconstruct one timeline per
    distinct message, ordered by (sender, sn). *)

val analyze : ?block_threshold:float -> Trace.record list list -> report
(** Analyse the merged streams. [block_threshold] (default 5 s) is the
    [Long_block] anomaly cutoff. *)

val report_to_json : report -> string
(** The trace-summary payload ([BENCH_rt_trace.json]): one flat JSON
    object. *)

val pp_timeline : Format.formatter -> timeline -> unit

val pp_anomaly : Format.formatter -> anomaly -> unit

val pp_report : Format.formatter -> report -> unit
