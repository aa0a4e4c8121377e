(** Simulated fully-connected message-passing network (paper §3.1).

    Nodes [0 .. n-1] are pairwise connected by reliable FIFO channels
    (the paper's system-model assumption): every message sent over a
    live link is eventually delivered, in send order, after a delay
    drawn from the link's latency model.

    Supported deviations, for testing and experiments:
    - {!crash}: crash-stop a node — it stops sending and receiving.
    - {!pause_receive}/{!resume_receive}: receiver-side backpressure; a
      paused node queues inbound messages instead of handling them
      (models "ceases to accept further messages from the network").
    - {!disconnect}/{!reconnect}: a temporarily partitioned link holds
      messages and releases them in order on reconnection, preserving
      the reliable-channel contract.
    - {!set_shed_policy}: semantic shedding of backlogged queues (a
      paused receiver's inbox, a held link) under the prefix-safe
      suffix rule — the simulated counterpart of the runtime
      transport's flow control. *)

type 'msg t

(** Semantic shedding for backlogged queues. A queued message may be
    dropped only when a newer message on the {e same FIFO stream}
    obsoletes it (directly, or transitively through messages
    themselves shed), and only from the contiguous newest-end run of
    such messages — so every prefix a receiver can observe still
    carries a cover for anything shed, and the FIFO-SR/SVS contract
    survives arbitrary crash points. Injected as closures: this module
    knows nothing of the protocol's message type. *)
type 'msg shed_policy = {
  shed_limit : int;
      (** Walk a queue only once it holds at least this many sheddable
          entries. *)
  sheddable : 'msg -> bool;  (** Annotated data messages. *)
  obsoletes : older:'msg -> newer:'msg -> bool;
  on_shed : dst:int -> 'msg -> unit;
      (** Fired per victim, oldest first ([dst] is the receiver that
          will now never see it). *)
}

val create :
  Svs_sim.Engine.t ->
  nodes:int ->
  ?latency:Latency.t ->
  ?bandwidth:float ->
  ?sizer:('msg -> int) ->
  ?manual:bool ->
  unit ->
  'msg t
(** Default latency is {!Latency.Zero}. When both [bandwidth] (bytes
    per second) and [sizer] (message size in bytes) are given, each
    link serialises messages store-and-forward: a message occupies its
    link for [size/bandwidth] seconds before the propagation latency,
    so large messages (e.g. PRED flushes) visibly delay what follows
    them. Without them, transmission is instantaneous.

    [manual] (default false) puts the network in manual-delivery mode
    for model checking: {!send} queues the message on its link instead
    of scheduling an arrival, and nothing moves until the driver calls
    {!manual_deliver} — the enumerator owns the interleaving, and
    in-flight traffic is inspectable ({!inflight}, {!peek_inflight})
    instead of being captured in scheduled closures. Latency and
    bandwidth are ignored in this mode. *)

val engine : 'msg t -> Svs_sim.Engine.t

val set_latency : 'msg t -> Latency.t -> unit
(** Swap the latency model for subsequently sent messages (latency
    spikes under chaos testing). Already-scheduled arrivals keep their
    times; per-link FIFO still holds because arrivals are clamped to
    the link's previous arrival time. *)

val latency : 'msg t -> Latency.t
(** The current latency model. *)

val attach_metrics : 'msg t -> Svs_telemetry.Metrics.t -> unit
(** Register the network's instruments: [net_messages_sent_total],
    [net_messages_delivered_total], [net_bytes_sent_total] (the last
    counts sized bytes, like {!bytes_sent}). *)

val size : 'msg t -> int

val set_handler : 'msg t -> node:int -> (src:int -> 'msg -> unit) -> unit
(** Install the upcall invoked on delivery at [node]. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Self-sends are allowed and delivered through the same path. Sends
    from or to a crashed node are dropped. *)

val broadcast : 'msg t -> src:int -> ?include_self:bool -> 'msg -> unit
(** Send to every node (default: including [src] itself). *)

val crash : 'msg t -> node:int -> unit

val revive : 'msg t -> node:int -> unit
(** Bring a crashed node back (a restarted incarnation). Messages sent
    to it while it was down remain lost; traffic sent from now on is
    delivered normally. Also clears any receive-pause. *)

val alive : 'msg t -> node:int -> bool

val pause_receive : 'msg t -> node:int -> unit

val resume_receive : 'msg t -> node:int -> unit

val inbox_length : 'msg t -> node:int -> int
(** Messages held while the node's receive side is paused. *)

val inbox_data_length : 'msg t -> node:int -> int
(** Sheddable entries of the paused backlog only (per the installed
    {!shed_policy}'s [sheddable]) — what the overload scenarios
    budget, control traffic excluded. {!inbox_length} without a
    policy. *)

val set_shed_policy : 'msg t -> 'msg shed_policy -> unit
(** Install (or replace) the shedding policy. Applies to messages
    queued from now on — each enqueue onto a backlogged paused inbox
    or held link runs the suffix walk with the fresh message as the
    candidate cover. *)

val shed_count : 'msg t -> int
(** Messages shed so far. *)

val disconnect : 'msg t -> int -> int -> unit
(** Symmetrically partition the pair of nodes. *)

val reconnect : 'msg t -> int -> int -> unit

val messages_sent : 'msg t -> int

val messages_delivered : 'msg t -> int

val bytes_sent : 'msg t -> int
(** Total sized bytes accepted for transmission (0 without a sizer). *)

(** {1 Manual-delivery mode (model checking)} *)

val manual : 'msg t -> bool

val partitioned : 'msg t -> src:int -> dst:int -> bool
(** Whether the directed link is currently cut. *)

val inflight : 'msg t -> src:int -> dst:int -> int
(** Messages queued on the directed link: in-flight traffic in manual
    mode, held-while-partitioned traffic otherwise. *)

val peek_inflight : 'msg t -> src:int -> dst:int -> 'msg option
(** The message {!manual_deliver} would hand over next. *)

val iter_inflight : 'msg t -> src:int -> dst:int -> ('msg -> unit) -> unit
(** In delivery (FIFO) order — for state fingerprinting. *)

val manual_deliver : 'msg t -> src:int -> dst:int -> bool
(** Deliver the head of the directed link's queue to [dst]'s handler.
    [false] if the link is partitioned or has nothing in flight; a
    message popped for a crashed [dst] is dropped (it arrived while the
    process was down) and still counts as [true]. Raises
    [Invalid_argument] outside manual mode, where arrivals are
    engine-scheduled. *)
