(** Structured trace-event stream.

    A tracer stamps typed protocol events with a timestamp (from a
    pluggable clock: virtual time under the simulator, wall clock in
    the runtime) and a sequence number, and fans them out to a sink:

    - {!nop} — disabled; the shared default everywhere.
    - {!memory} — captured in order, for tests and the experiments
      pipeline ({!records}).
    - {!jsonl} — line-delimited JSON on an [out_channel], for offline
      analysis; {!record_of_json} parses it back.
    - {!ring} — a bounded ring buffer (the flight recorder): always
      cheap to leave on, holding the last N events for a postmortem
      dump when something goes wrong.
    - {!tee} — fan out to two sinks (e.g. a JSONL file {e and} a
      flight-recorder ring).

    The hot-path discipline is the {!Logs} one: guard every emission
    with {!enabled} so that a disabled tracer costs one load and a
    branch and never allocates the event:

    {[ if Trace.enabled tr then Trace.emit tr (Purge { ... }) ]} *)

type site = At_multicast | At_receive | At_install
(** Where a purge happened: on local multicast (t2), on reception
    (t3), or on view installation (injection of the agreed pred, t8). *)

type event =
  | Multicast of { node : int; view_id : int; sn : int }
      (** The message lifecycle's [submit] span: the application handed
          message [(node, sn)] to the protocol (t2). *)
  | Tx of { node : int; dst : int; sender : int; sn : int; view_id : int }
      (** [node] handed a DATA frame for message [(sender, sn)] to the
          transport towards [dst]. One event per destination. *)
  | Rx of { node : int; src : int; sender : int; sn : int; view_id : int }
      (** A DATA frame for message [(sender, sn)] arrived at [node]
          from [src] (before the duplicate/cover guards run). *)
  | Deliver of { node : int; view_id : int; sender : int; sn : int }
      (** The application pulled message [(sender, sn)] at [node] (t1).
          [Deliver.time - Multicast.time] is the end-to-end delivery
          latency when both nodes share a clock. *)
  | StableMsg of { node : int; sender : int; sn : int }
      (** Message [(sender, sn)] became stable at [node]: every
          member's gossiped receive floor covers it, so it was dropped
          from the PRED bookkeeping. *)
  | Purge of { node : int; view_id : int; at_step : site; sender : int; sn : int }
      (** One event per purged message: [sender]/[sn] identify the
          message dropped as obsolete. *)
  | Evict of { node : int; view_id : int; sender : int; sn : int }
      (** Message [(sender, sn)], delivered at [node], was evicted from
          the PRED bookkeeping because a later delivery there covers
          it: it leaves covered rather than stable, so no [StableMsg]
          follows at [node]. *)
  | ViewInstall of { node : int; view_id : int; members : int list }
  | ConsensusDecide of { node : int; view_id : int }
  | Suspect of { node : int; suspect : int }
  | Block of { node : int; view_id : int }
  | Unblock of { node : int; view_id : int }
  | TcpReconnect of { node : int; peer : int }
      (** An outgoing link came up after at least one failed dial. *)
  | TcpDrop of { node : int; peer : int; reason : string }
      (** The transport dropped traffic or reset a link: a frame to an
          unknown or written-off destination, an oversize inbound
          frame, a malformed hello, a broken stream, a peer written
          off after exhausting its dial budget, or a quarantined peer
          trying to reconnect before its cooldown expired. *)
  | Quarantine of { node : int; peer : int; score : int }
      (** [peer]'s misbehavior score (accumulated decode failures)
          crossed the quarantine threshold at [node]: its links are
          torn down and its reconnects refused until the cooldown
          expires. [score] is the rounded score at escalation. *)
  | Fault of { kind : string; node : int; peer : int }
      (** A chaos-injected fault ([kind] names the action: [crash],
          [pause], [partition], ...). [peer] is the second endpoint for
          link faults and [-1] when not applicable. *)
  | Join of { node : int; contact : int }
      (** A joining member sent a JOIN request to [contact]. *)
  | StateTransfer of { node : int; peer : int; bytes : int }
      (** A SYNC state transfer: at the sponsor, [peer] is the joiner
          it synced; at the joiner, [peer] is the sponsor. [bytes] is
          the application-state payload size (0 when none). *)
  | WalRecovery of {
      node : int;
      records : int;
      truncated : int;
      skipped : int;
      tainted : bool;
    }
      (** A node recovered durable state from its write-ahead log:
          [records] valid records replayed, [truncated] damaged bytes
          discarded, [skipped] corrupt interior regions salvaged
          around (quarantined to a [.corrupt] sidecar). [tainted]
          means the scan could not prove the durable-lease suffix
          intact, so the node must not trust the recovered lease
          ceiling. *)
  | Divergence of { node : int; view_id : int }
      (** [node]'s replicated-state digest disagreed with the rest of
          view [view_id] (see the digest gossip in the node/group
          layer): it is self-demoting to joiner and re-syncing. *)
  | Parked of { node : int; view_id : int }
      (** A member lost the primary component: a view change could not
          assemble a majority of view [view_id] within the park
          deadline, so the member stopped delivering and multicasting
          and started probing for the primary. *)
  | Merge of { node : int; view_id : int; parked_ms : int }
      (** A parked member rejoined the primary component via JOIN/SYNC,
          installing view [view_id] after [parked_ms] milliseconds out
          of the group. *)
  | Backpressure of { node : int; peer : int; stage : string; pending : int }
      (** [node]'s outbound queue towards [peer] crossed a flow-control
          boundary: [stage] is ["soft"] (shedding engaged), ["hard"]
          (admission control engaged), ["reported"] (persistently over
          the hard watermark — the slow-member policy flagged it), or
          ["resume"] (drained back under the resume watermark).
          [pending] is the queue size in bytes at the transition. *)
  | Shed of { node : int; peer : int; sender : int; sn : int }
      (** A queued-but-unsent frame carrying message [sender]:[sn] was
          purged from [node]'s outbound queue towards [peer] (or from a
          paused receiver's backlog) under the prefix-safe suffix rule
          — a newer queued frame covers it. *)

type record = { time : float; seq : int; event : event }

type t

val nop : t
(** The shared disabled tracer; {!enabled} is [false], {!emit} is a
    no-op, {!set_clock} is ignored. *)

val memory : ?clock:(unit -> float) -> unit -> t
(** Clock defaults to a constant [0.]. *)

val jsonl : ?clock:(unit -> float) -> out_channel -> t
(** Writes one JSON object per event, newline-terminated. The channel
    is flushed by {!flush}, not per event. *)

val ring : ?clock:(unit -> float) -> ?capacity:int -> unit -> t
(** Flight recorder: keeps the last [capacity] (default 4096) records,
    overwriting the oldest. {!records} returns the retained window
    oldest-first; {!clear} empties it. Cheap enough to leave always on
    — an emission is one record allocation and two queue operations. *)

val tee : t -> t -> t
(** [tee a b] forwards every {!emit} to both tracers (each stamps its
    own clock and sequence). {!enabled} when either side is;
    {!set_clock}, {!flush} and {!clear} apply to both; {!records}
    reads the first buffering branch (see {!records}). *)

val enabled : t -> bool

val emit : t -> event -> unit

val now : t -> float
(** The tracer's current clock reading (0. for {!nop}). *)

val set_clock : t -> (unit -> float) -> unit
(** Re-point the clock, e.g. at {!Svs_sim.Engine.now} so simulated
    runs stamp events with virtual time. *)

val records : t -> record list
(** Captured records, oldest first. Empty unless the sink is
    {!memory}, {!ring} (the retained window), or a {!tee} over one —
    for a tee, the first buffering branch's records (both branches saw
    the same stream, so reading both would duplicate it). *)

val clear : t -> unit
(** Drop captured records (memory and ring sinks only). *)

val flush : t -> unit

val record_to_json : record -> string
(** One-line JSON, no trailing newline. *)

val record_of_json : string -> record option
(** Parses exactly the objects {!record_to_json} produces. *)

val pp_event : Format.formatter -> event -> unit
