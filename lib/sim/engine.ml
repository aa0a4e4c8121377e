type event = {
  time : float;
  seq : int;
  mutable cancelled : bool;
  mutable action : unit -> unit;
}

type handle = event

module Metrics = Svs_telemetry.Metrics

type probe = {
  events : Metrics.Counter.t;
  depth : Metrics.Gauge.t;
}

type t = {
  queue : event Heap.t;
  root_rng : Rng.t;
  mutable clock : float;
  mutable next_seq : int;
  mutable executed : int;
  mutable probe : probe option;
}

let event_leq a b = a.time < b.time || (a.time = b.time && a.seq <= b.seq)

let create ?(seed = 42) () =
  {
    queue = Heap.create ~leq:event_leq ();
    root_rng = Rng.create ~seed;
    clock = 0.0;
    next_seq = 0;
    executed = 0;
    probe = None;
  }

let now t = t.clock

let clock t () = t.clock

let attach_metrics t reg =
  t.probe <-
    Some { events = Metrics.counter reg "sim_events_total"; depth = Metrics.gauge reg "sim_queue_depth" }

let rng t = t.root_rng

let schedule_at t ~time f =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)" time t.clock);
  let ev = { time; seq = t.next_seq; cancelled = false; action = f } in
  t.next_seq <- t.next_seq + 1;
  Heap.add t.queue ev;
  ev

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) f

let nothing () = ()

let cancel ev =
  ev.cancelled <- true;
  ev.action <- nothing

let cancelled ev = ev.cancelled

(* Drops cancelled events off the head of the queue, so the head, if
   any, is pending. Allocates nothing when none is cancelled. *)
let rec next_time t =
  if Heap.is_empty t.queue then infinity
  else
    let ev = Heap.min_exn t.queue in
    if ev.cancelled then begin
      ignore (Heap.pop t.queue : event option);
      next_time t
    end
    else ev.time

let pending t =
  Heap.fold (fun n ev -> if ev.cancelled then n else n + 1) 0 t.queue

let run_event t ev =
  t.clock <- ev.time;
  t.executed <- t.executed + 1;
  (match t.probe with
  | None -> ()
  | Some p ->
      Metrics.Counter.incr p.events;
      Metrics.Gauge.set p.depth (float_of_int (Heap.length t.queue)));
  (* The heap's array keeps popped events in its spare slots: drop the
     closure, or a long-lived engine keeps alive whatever it captured
     (a shut-down node, in the runtime). *)
  let action = ev.action in
  ev.action <- nothing;
  action ()

let step t =
  let rec next () =
    match Heap.pop t.queue with
    | None -> false
    | Some ev ->
        if ev.cancelled then next ()
        else begin
          run_event t ev;
          true
        end
  in
  next ()

(* --- Enumeration support (model checking) ---

   The heap's total order is (time, seq): among equal timestamps,
   events execute in scheduling order, never insertion/heap order, so
   a run is a deterministic function of the sequence of choices made
   by the driver. [ready]/[step_ready] expose the tie group at the
   head of the queue so an enumerator can explore the other
   permutations of equal-timestamp events too. *)

let ready t =
  ignore (next_time t : float);
  if Heap.is_empty t.queue then []
  else
    let head = Heap.min_exn t.queue in
    let same =
      Heap.fold
        (fun acc ev -> if (not ev.cancelled) && ev.time = head.time then ev :: acc else acc)
        [] t.queue
    in
    List.sort (fun a b -> compare a.seq b.seq) same

let handle_time ev = ev.time

let handle_seq ev = ev.seq

let step_ready t ev =
  if ev.cancelled then invalid_arg "Engine.step_ready: cancelled event";
  if next_time t <> ev.time then invalid_arg "Engine.step_ready: event is not ready";
  (* Pop until we reach [ev]; everything popped first shares its
     timestamp (checked above), so re-adding preserves the order of
     the rest of the queue. *)
  let rec extract acc =
    match Heap.pop t.queue with
    | None -> invalid_arg "Engine.step_ready: event is not pending"
    | Some e when e == ev -> acc
    | Some e ->
        if e.time <> ev.time then invalid_arg "Engine.step_ready: event is not ready"
        else extract (e :: acc)
  in
  let ties = extract [] in
  List.iter (Heap.add t.queue) ties;
  run_event t ev

let run ?until ?max_events t =
  let horizon = match until with None -> infinity | Some u -> u in
  let budget = match max_events with None -> max_int | Some n -> n in
  let rec loop ran = if ran < budget && next_time t <= horizon && step t then loop (ran + 1) in
  loop 0;
  (match until with
  | Some u when t.clock < u -> t.clock <- u
  | Some _ | None -> ())

let every t ?start ~period f =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  let first = match start with None -> period | Some s -> s in
  (* A stable outer handle: cancelling it marks [stopped]; the inner
     per-period events check the flag before firing. *)
  let outer = { time = t.clock +. first; seq = -1; cancelled = false; action = (fun () -> ()) } in
  let rec arm delay =
    ignore
      (schedule t ~delay (fun () ->
           if not outer.cancelled then
             if f () then arm period else outer.cancelled <- true)
        : handle)
  in
  arm first;
  outer

let events_executed t = t.executed
