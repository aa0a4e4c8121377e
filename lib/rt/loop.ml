module Engine = Svs_sim.Engine

(* The handle of the event that fires next: [every] swaps in each
   re-armed event, so cancelling always reaches the pending one. *)
type timer = Engine.handle ref

type t = {
  engine : Engine.t; (* clock: seconds of wall time since [epoch] *)
  epoch : float;
  mutable fds : (Unix.file_descr * (unit -> unit)) list;
  mutable watched : Unix.file_descr list; (* [fds]' descriptors, for select *)
  mutable before_wait : (unit -> bool) list;
  mutable running : bool;
}

let create () =
  (* Writing to a peer that died must surface as EPIPE on the write,
     not kill the process. *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    engine = Engine.create ();
    epoch = Unix.gettimeofday ();
    fds = [];
    watched = [];
    before_wait = [];
    running = false;
  }

let now _ = Unix.gettimeofday ()

let engine t = t.engine

let elapsed t = Unix.gettimeofday () -. t.epoch

let set_fds t fds =
  t.fds <- fds;
  t.watched <- List.map fst fds

let on_readable t fd callback = set_fds t ((fd, callback) :: List.remove_assq fd t.fds)

let remove_fd t fd = set_fds t (List.remove_assq fd t.fds)

(* A loop timer counts its delay from wall time, not from the engine's
   clock, which stands at the start of the current iteration (and
   never runs backwards when the wall clock does). *)
let arm t ~delay f =
  Engine.schedule_at t.engine ~time:(Float.max (Engine.now t.engine) (elapsed t) +. delay) f

let after t ~delay f = ref (arm t ~delay f)

let every t ~period f =
  if period <= 0.0 then invalid_arg "Loop.every: period must be positive";
  let fire = ref ignore in
  let timer = ref (arm t ~delay:period (fun () -> !fire ())) in
  (fire := fun () -> if f () && not (Engine.cancelled !timer) then timer := arm t ~delay:period !fire);
  timer

let cancel timer = Engine.cancel !timer

let before_wait t hook = t.before_wait <- t.before_wait @ [ hook ]

(* Runs every hook once and returns those that returned [true]: the
   same list, physically, when all did, so a quiet iteration allocates
   nothing. *)
let rec run_hooks = function
  | [] -> []
  | hook :: rest as hooks ->
      let keep = hook () in
      let kept = run_hooks rest in
      if not keep then kept else if kept == rest then hooks else hook :: kept

let run_before_wait t =
  let hooks = t.before_wait in
  let kept = run_hooks hooks in
  if kept != hooks then t.before_wait <- kept

let stop t = t.running <- false

let run ?(until = fun () -> false) ?timeout t =
  t.running <- true;
  let deadline = Option.map (fun s -> now t +. s) timeout in
  let expired () = match deadline with Some d -> now t >= d | None -> false in
  while t.running && (not (until ())) && not (expired ()) do
    Engine.run ~until:(elapsed t) t.engine;
    if t.running && (not (until ())) && not (expired ()) then begin
      let wait =
        let till_timer = Engine.next_time t.engine -. elapsed t in
        let till_deadline =
          match deadline with Some d -> d -. now t | None -> infinity
        in
        Float.max 0.0 (Float.min 0.05 (Float.min till_timer till_deadline))
      in
      if t.fds = [] && Engine.next_time t.engine = infinity then t.running <- false
      else begin
        run_before_wait t;
        match Unix.select t.watched [] [] wait with
        | readable, _, _ ->
            List.iter
              (fun fd ->
                match List.assq_opt fd t.fds with
                | Some callback -> callback ()
                | None -> ())
              readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      end
    end
  done;
  t.running <- false
