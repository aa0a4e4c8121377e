(** Minimal [select]-based I/O event loop with wall-clock timers.

    The bridge from the simulation-first design to real execution: the
    protocol automata (SVS, consensus, heartbeats) are all
    transport-agnostic, so running them outside the simulator only
    needs sockets and timers. One loop can host any number of nodes
    (tests run whole groups in a single process).

    The loop's timers and the automata's share one queue: the loop's
    {!engine}, whose clock reads the wall-clock seconds since
    {!create}. Each iteration runs the events due by then, runs the
    {!before_wait} hooks, and waits in [select] until the next event
    is due (at most 50 ms), then dispatches the readable descriptors. *)

type t

type timer

val create : unit -> t
(** Also ignores [SIGPIPE] process-wide: a peer crashing mid-write must
    surface as an [EPIPE] error, not kill the process. *)

val now : t -> float
(** Monotonic-ish wall clock (Unix.gettimeofday). *)

val engine : t -> Svs_sim.Engine.t
(** The loop's one timer queue. Automata that schedule on an engine
    ({!Svs_core.Member}, heartbeats, consensus) run on this one; its
    clock stands at the start of the current iteration. *)

val on_readable : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Register (or replace) the read callback for a descriptor. *)

val remove_fd : t -> Unix.file_descr -> unit

val after : t -> delay:float -> (unit -> unit) -> timer
(** An event on {!engine}, [delay] seconds of wall time from now. *)

val every : t -> period:float -> (unit -> bool) -> timer
(** Periodic callback; stops when it returns [false] or on {!cancel}.
    Each firing re-arms at the wall time the callback returned plus
    [period], so a loop that stalls fires a late timer once, not once
    per period it missed. *)

val cancel : timer -> unit

val before_wait : t -> (unit -> bool) -> unit
(** [before_wait t hook] runs [hook] once per {!run} iteration, after
    the due timers and the previous iteration's I/O callbacks, just
    before the loop blocks in [select]; the hook is dropped once it
    returns [false]. A hook must not register hooks itself. The
    transport flushes here, so a batch is what one iteration
    produced. *)

val stop : t -> unit
(** Make {!run} return after the current iteration. *)

val run : ?until:(unit -> bool) -> ?timeout:float -> t -> unit
(** Dispatch I/O and timers until [until ()] is true (checked each
    iteration), {!stop} is called, [timeout] seconds of wall time
    elapse, or there is nothing left to wait for: no descriptor and
    no pending event. *)
