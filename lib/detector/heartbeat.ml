module Engine = Svs_sim.Engine

type config = {
  period : float;
  initial_timeout : float;
  timeout_increment : float;
  max_timeout : float;
}

let default_config =
  { period = 0.1; initial_timeout = 0.35; timeout_increment = 0.2; max_timeout = 2.0 }

type peer_state = {
  peer : int;
  mutable last_heard : float;
  mutable timeout : float;
  mutable suspected : bool;
}

type t = {
  engine : Engine.t;
  config : config;
  me : int;
  peers : peer_state list;
  send_heartbeat : dst:int -> unit;
  mutable suspect_callbacks : (int -> unit) list;
  mutable rescind_callbacks : (int -> unit) list;
  mutable tasks : Engine.handle list;
  mutable stopped : bool;
}

let find_peer t p = List.find_opt (fun st -> st.peer = p) t.peers

let check t =
  let now = Engine.now t.engine in
  let check_peer st =
    if (not st.suspected) && now -. st.last_heard > st.timeout then begin
      st.suspected <- true;
      List.iter (fun f -> f st.peer) t.suspect_callbacks
    end
  in
  List.iter check_peer t.peers

let beat t =
  List.iter (fun st -> t.send_heartbeat ~dst:st.peer) t.peers

let create engine config ~me ~peers ~send_heartbeat =
  if config.period <= 0.0 then invalid_arg "Heartbeat.create: period must be positive";
  if config.max_timeout < config.initial_timeout then
    invalid_arg "Heartbeat.create: max_timeout below initial_timeout";
  let now = Engine.now engine in
  let mk peer =
    { peer; last_heard = now; timeout = config.initial_timeout; suspected = false }
  in
  let t =
    {
      engine;
      config;
      me;
      peers = List.map mk (List.filter (fun p -> p <> me) peers);
      send_heartbeat;
      suspect_callbacks = [];
      rescind_callbacks = [];
      tasks = [];
      stopped = false;
    }
  in
  (* Send a first round immediately so peers hear from us at startup. *)
  beat t;
  let beat_task =
    Engine.every engine ~period:config.period (fun () ->
        if not t.stopped then beat t;
        not t.stopped)
  in
  let check_task =
    Engine.every engine ~start:(config.period /. 2.0) ~period:(config.period /. 2.0)
      (fun () ->
        if not t.stopped then check t;
        not t.stopped)
  in
  t.tasks <- [ beat_task; check_task ];
  t

let on_heartbeat t ~src =
  match find_peer t src with
  | None -> ()
  | Some st ->
      st.last_heard <- Engine.now t.engine;
      if st.suspected then begin
        (* False suspicion: rescind and adapt the timeout upward. *)
        st.suspected <- false;
        st.timeout <-
          Float.min t.config.max_timeout (st.timeout +. t.config.timeout_increment);
        List.iter (fun f -> f st.peer) t.rescind_callbacks
      end

let suspects t p =
  match find_peer t p with None -> false | Some st -> st.suspected

let suspected_set t =
  List.filter_map (fun st -> if st.suspected then Some st.peer else None) t.peers

let on_suspect t f = t.suspect_callbacks <- f :: t.suspect_callbacks

let on_rescind t f = t.rescind_callbacks <- f :: t.rescind_callbacks

let timeout_of t p =
  match find_peer t p with
  | None -> invalid_arg "Heartbeat.timeout_of: unknown peer"
  | Some st -> st.timeout

let stop t =
  t.stopped <- true;
  List.iter Engine.cancel t.tasks
