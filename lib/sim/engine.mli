(** Discrete-event simulation engine.

    A single-threaded event loop over virtual time. Events are closures
    scheduled at absolute or relative virtual times and executed in
    timestamp order (FIFO among equal timestamps). Closures may schedule
    further events. All randomness should come from {!rng} so a run is a
    pure function of the seed. *)

type t

type handle
(** A scheduled event, usable for cancellation. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] is a fresh engine at time [0.0]. Default seed 42. *)

val now : t -> float
(** Current virtual time, in seconds. *)

val clock : t -> unit -> float
(** [clock t] is a closure reading {!now} — the virtual-time hook to
    plug into telemetry ({!Svs_telemetry.Trace.set_clock}) so simulated
    runs stamp trace events with virtual time. *)

val attach_metrics : t -> Svs_telemetry.Metrics.t -> unit
(** Register the engine's instruments in [reg]: [sim_events_total]
    (events executed) and the [sim_queue_depth] gauge, both updated per
    executed event. *)

val rng : t -> Rng.t
(** The engine's root random stream. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay]. [delay] must be
    non-negative. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at absolute [time], which must not
    be in the past. *)

val cancel : handle -> unit
(** Cancels a scheduled event; cancelling an already-executed or
    already-cancelled event is a no-op. *)

val cancelled : handle -> bool

val pending : t -> int
(** Number of scheduled (non-cancelled) events. *)

val next_time : t -> float
(** The time of the earliest pending event, or [infinity] if none is.
    Allocates nothing unless it drops cancelled events, so a real-time
    loop can size its wait from it on every iteration. *)

val step : t -> bool
(** Executes the next event. [false] if the queue was empty.

    Determinism guarantee: the next event is the pending event minimal
    in (time, scheduling sequence number) — ties between
    equal-timestamp events always break towards the event scheduled
    first, never on heap or insertion order. A simulation driven only
    by [step] (or {!run}) is therefore a pure function of the schedule
    calls made so far, which is what lets a model checker reproduce a
    state from a choice trace alone. *)

val ready : t -> handle list
(** The group of pending events tied at the earliest pending
    timestamp, in scheduling order ([step] would execute the head).
    Exposed so an enumerator can explore the other interleavings of
    equal-timestamp events with {!step_ready}. *)

val step_ready : t -> handle -> unit
(** Execute one specific event of the current {!ready} group (not
    necessarily its head), leaving the rest pending. Raises
    [Invalid_argument] if the handle is cancelled, already executed,
    or not at the earliest pending timestamp — out-of-order execution
    across distinct timestamps would move the clock backwards later. *)

val handle_time : handle -> float

val handle_seq : handle -> int
(** The monotonic sequence number assigned at scheduling time — the
    tie-breaker among equal timestamps. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** [run t] executes events until the queue drains, virtual time would
    exceed [until], or [max_events] have run. After [run ~until], the
    clock reads [until] if the horizon was reached (or the queue drained
    earlier with events remaining beyond it); otherwise the time of the
    last event. *)

val every : t -> ?start:float -> period:float -> (unit -> bool) -> handle
(** [every t ~period f] runs [f] periodically starting at
    [now + start] (default [period]); rescheduling stops when [f]
    returns [false] or the returned handle is cancelled. The handle
    stays valid across periods. *)

val events_executed : t -> int
