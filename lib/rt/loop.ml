type timer = {
  mutable fire_at : float;
  period : float option;
  mutable action : unit -> bool;
  mutable cancelled : bool;
}

type t = {
  mutable fds : (Unix.file_descr * (unit -> unit)) list;
  mutable timers : timer list;
  mutable before_wait : (unit -> bool) list;
  mutable running : bool;
}

let create () =
  (* Writing to a peer that died must surface as EPIPE on the write,
     not kill the process. *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  { fds = []; timers = []; before_wait = []; running = false }

let now _ = Unix.gettimeofday ()

let on_readable t fd callback =
  t.fds <- (fd, callback) :: List.remove_assq fd t.fds

let remove_fd t fd = t.fds <- List.remove_assq fd t.fds

let add_timer t timer = t.timers <- timer :: t.timers

let after t ~delay f =
  let timer =
    {
      fire_at = now t +. delay;
      period = None;
      action =
        (fun () ->
          f ();
          false);
      cancelled = false;
    }
  in
  add_timer t timer;
  timer

let every t ~period f =
  if period <= 0.0 then invalid_arg "Loop.every: period must be positive";
  let timer = { fire_at = now t +. period; period = Some period; action = f; cancelled = false } in
  add_timer t timer;
  timer

let cancel timer = timer.cancelled <- true

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

let next_deadline t =
  List.fold_left
    (fun acc timer -> if timer.cancelled then acc else Float.min acc timer.fire_at)
    infinity t.timers

let fire_due t =
  let current = now t in
  let due, rest =
    List.partition (fun timer -> (not timer.cancelled) && timer.fire_at <= current) t.timers
  in
  t.timers <- List.filter (fun timer -> not timer.cancelled) rest;
  List.iter
    (fun timer ->
      if not timer.cancelled then begin
        let again = timer.action () in
        match timer.period with
        | Some p when again && not timer.cancelled ->
            timer.fire_at <- now t +. p;
            add_timer t timer
        | Some _ | None -> ()
      end)
    due

let run ?(until = fun () -> false) ?timeout t =
  t.running <- true;
  let deadline = Option.map (fun s -> now t +. s) timeout in
  let expired () = match deadline with Some d -> now t >= d | None -> false in
  while t.running && (not (until ())) && not (expired ()) do
    fire_due t;
    if t.running && (not (until ())) && not (expired ()) then begin
      let wait =
        let till_timer = next_deadline t -. now t in
        let till_deadline =
          match deadline with Some d -> d -. now t | None -> infinity
        in
        Float.max 0.0 (Float.min 0.05 (Float.min till_timer till_deadline))
      in
      if t.fds = [] && t.timers = [] then t.running <- false
      else begin
        run_before_wait t;
        let fds = List.map fst t.fds in
        match Unix.select fds [] [] wait with
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
