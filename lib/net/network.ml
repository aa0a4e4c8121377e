module Engine = Svs_sim.Engine
module Metrics = Svs_telemetry.Metrics

type probe = {
  m_sent : Metrics.Counter.t;
  m_delivered : Metrics.Counter.t;
  m_bytes : Metrics.Counter.t;
}

type 'msg link = {
  mutable last_arrival : float;
      (* Enforces FIFO under random latency: the next arrival is never
         scheduled before the previous one on the same link. *)
  mutable busy_until : float;
      (* Store-and-forward serialisation when bandwidth is finite. *)
  mutable partitioned : bool;
  held : 'msg Queue.t; (* Messages buffered while partitioned. *)
}

type 'msg node = {
  mutable alive : bool;
  mutable paused : bool;
  mutable handler : (src:int -> 'msg -> unit) option;
  inbox : (int * 'msg) Queue.t;
}

(* Semantic shedding for backlogged queues (a paused receiver's inbox,
   a partitioned or manual-mode link), under the same prefix-safe
   suffix rule as the runtime transport (see [Svs_obs.Shed]): a queued
   message may be dropped only when a newer message {e on the same
   FIFO stream} obsoletes it, directly or through messages themselves
   shed, and only from the contiguous newest-end run — so every
   prefix a receiver can observe still carries a cover for anything
   shed. The policy is injected as closures because this module knows
   nothing of the protocol's message type. *)
type 'msg shed_policy = {
  shed_limit : int;
      (* Walk only once a queue holds at least this many sheddable
         entries — small backlogs are not worth touching. *)
  sheddable : 'msg -> bool;
  obsoletes : older:'msg -> newer:'msg -> bool;
  on_shed : dst:int -> 'msg -> unit;
}

let shed_max_walk = 128

let shed_max_cover = 32

type 'msg t = {
  engine : Engine.t;
  mutable latency : Latency.t;
  bandwidth : float; (* bytes per second; infinity = unmodelled *)
  sizer : ('msg -> int) option;
  manual : bool;
      (* Model-checking mode: sends queue on the link (reusing [held])
         and are delivered only by explicit [manual_deliver] calls, so
         an enumerator controls the interleaving and can inspect
         in-flight traffic — scheduled-closure arrivals would hide
         both. *)
  nodes : 'msg node array;
  links : 'msg link array array; (* links.(src).(dst) *)
  mutable sent : int;
  mutable delivered : int;
  mutable bytes : int;
  mutable shed : int;
  mutable shed_policy : 'msg shed_policy option;
  mutable probe : probe option;
}

let create engine ~nodes ?(latency = Latency.Zero) ?(bandwidth = infinity) ?sizer
    ?(manual = false) () =
  if nodes <= 0 then invalid_arg "Network.create: need at least one node";
  if bandwidth <= 0.0 then invalid_arg "Network.create: bandwidth must be positive";
  let mk_node () = { alive = true; paused = false; handler = None; inbox = Queue.create () } in
  let mk_link () =
    { last_arrival = 0.0; busy_until = 0.0; partitioned = false; held = Queue.create () }
  in
  {
    engine;
    latency;
    bandwidth;
    sizer;
    manual;
    nodes = Array.init nodes (fun _ -> mk_node ());
    links = Array.init nodes (fun _ -> Array.init nodes (fun _ -> mk_link ()));
    sent = 0;
    delivered = 0;
    bytes = 0;
    shed = 0;
    shed_policy = None;
    probe = None;
  }

let set_shed_policy t p = t.shed_policy <- Some p

let shed_count t = t.shed

(* The suffix walk over one queue, generic in the entry shape.
   [entries] is the queue newest-first (excluding [fresh], the message
   about to be appended); [same_stream] selects the FIFO stream
   [fresh] extends (entries of other streams are skipped — their own
   order is untouched); returns the victims. A same-stream entry that
   is unsheddable or uncovered stops the walk: only the contiguous
   covered run at the newest end may go, which is what makes every
   observable prefix carry a cover. *)
let shed_walk p ~same_stream ~msg_of entries fresh =
  let rec go steps n_cover cover acc = function
    | [] -> acc
    | e :: rest ->
        if steps >= shed_max_walk then acc
        else if not (same_stream e) then go (steps + 1) n_cover cover acc rest
        else
          let m = msg_of e in
          if not (p.sheddable m) then acc
          else if List.exists (fun c -> p.obsoletes ~older:m ~newer:c) cover then
            let cover, n_cover =
              if n_cover < shed_max_cover then (m :: cover, n_cover + 1) else (cover, n_cover)
            in
            go (steps + 1) n_cover cover (e :: acc) rest
          else acc
  in
  go 0 1 [ fresh ] [] entries

(* Apply the walk to [q] before appending a fresh sheddable message:
   victims are removed in place (queue rebuild — sim scale, not a hot
   path) and reported oldest-first. *)
let shed_queue t p ~dst ~same_stream ~msg_of q fresh =
  let backlog = Queue.fold (fun n e -> if p.sheddable (msg_of e) then n + 1 else n) 0 q in
  if backlog >= p.shed_limit then begin
    let newest_first = List.rev (List.of_seq (Queue.to_seq q)) in
    match shed_walk p ~same_stream ~msg_of newest_first fresh with
    | [] -> ()
    | victims ->
        let keep = Queue.create () in
        Queue.iter (fun e -> if not (List.memq e victims) then Queue.add e keep) q;
        Queue.clear q;
        Queue.transfer keep q;
        t.shed <- t.shed + List.length victims;
        List.iter (fun e -> p.on_shed ~dst (msg_of e)) victims
  end

let engine t = t.engine

let set_latency t latency = t.latency <- latency

let latency t = t.latency

let attach_metrics t reg =
  t.probe <-
    Some
      {
        m_sent = Metrics.counter reg "net_messages_sent_total";
        m_delivered = Metrics.counter reg "net_messages_delivered_total";
        m_bytes = Metrics.counter reg "net_bytes_sent_total";
      }

let note_delivered t =
  t.delivered <- t.delivered + 1;
  match t.probe with None -> () | Some p -> Metrics.Counter.incr p.m_delivered

let size t = Array.length t.nodes

let check_node t node =
  if node < 0 || node >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Network: node %d out of range" node)

let set_handler t ~node f =
  check_node t node;
  t.nodes.(node).handler <- Some f

let handle t ~dst ~src msg =
  let n = t.nodes.(dst) in
  if n.alive then
    if n.paused then begin
      (* A paused receiver's backlog: the fresh arrival may obsolete
         queued arrivals from the same sender (the per-sender
         subsequence of the inbox is that sender's FIFO stream). *)
      (match t.shed_policy with
      | Some p when p.sheddable msg ->
          shed_queue t p ~dst ~same_stream:(fun (s, _) -> s = src) ~msg_of:snd n.inbox msg
      | Some _ | None -> ());
      Queue.add (src, msg) n.inbox
    end
    else begin
      note_delivered t;
      match n.handler with
      | Some f -> f ~src msg
      | None -> ()
    end

let schedule_arrival t ~src ~dst msg =
  let link = t.links.(src).(dst) in
  let now = Engine.now t.engine in
  (* Serialise onto the link first (when bandwidth is modelled), then
     propagate. *)
  let count_bytes bytes =
    t.bytes <- t.bytes + bytes;
    match t.probe with None -> () | Some p -> Metrics.Counter.add p.m_bytes bytes
  in
  let departure =
    match t.sizer with
    | Some size when t.bandwidth < infinity ->
        let bytes = size msg in
        count_bytes bytes;
        let d = Float.max now link.busy_until +. (float_of_int bytes /. t.bandwidth) in
        link.busy_until <- d;
        d
    | Some size ->
        count_bytes (size msg);
        now
    | None -> now
  in
  let arrival =
    Float.max (departure +. Latency.sample t.latency (Engine.rng t.engine)) link.last_arrival
  in
  link.last_arrival <- arrival;
  ignore
    (Engine.schedule_at t.engine ~time:arrival (fun () -> handle t ~dst ~src msg)
      : Engine.handle)

let send t ~src ~dst msg =
  check_node t src;
  check_node t dst;
  if t.nodes.(src).alive && t.nodes.(dst).alive then begin
    t.sent <- t.sent + 1;
    (match t.probe with None -> () | Some p -> Metrics.Counter.incr p.m_sent);
    let link = t.links.(src).(dst) in
    if t.manual || link.partitioned then begin
      (* A held link carries exactly one FIFO stream, so every entry
         is walk-eligible. *)
      (match t.shed_policy with
      | Some p when p.sheddable msg ->
          shed_queue t p ~dst ~same_stream:(fun _ -> true) ~msg_of:(fun m -> m) link.held msg
      | Some _ | None -> ());
      Queue.add msg link.held
    end
    else schedule_arrival t ~src ~dst msg
  end

let broadcast t ~src ?(include_self = true) msg =
  check_node t src;
  for dst = 0 to size t - 1 do
    if include_self || dst <> src then send t ~src ~dst msg
  done

let crash t ~node =
  check_node t node;
  let n = t.nodes.(node) in
  n.alive <- false;
  Queue.clear n.inbox;
  (* Manual mode models crash-stop as absorbing in-flight traffic to
     the node: it arrives while the process is down. (Scheduled-mode
     arrivals get the same treatment from the [alive] check in
     [handle].) *)
  if t.manual then
    Array.iter (fun row -> Queue.clear row.(node).held) t.links

let revive t ~node =
  check_node t node;
  let n = t.nodes.(node) in
  n.alive <- true;
  n.paused <- false;
  (* A restarted process is a new incarnation: in-flight traffic to the
     old one stays lost (it was cleared at crash time), and per-link
     FIFO clocks are untouched, so the reliable-channel contract holds
     for everything sent from now on. *)
  Queue.clear n.inbox

let alive t ~node =
  check_node t node;
  t.nodes.(node).alive

let pause_receive t ~node =
  check_node t node;
  t.nodes.(node).paused <- true

let resume_receive t ~node =
  check_node t node;
  let n = t.nodes.(node) in
  n.paused <- false;
  (* Drain in order; the handler may re-pause, which stops the drain. *)
  let rec drain () =
    if (not n.paused) && n.alive && not (Queue.is_empty n.inbox) then begin
      let src, msg = Queue.pop n.inbox in
      note_delivered t;
      (match n.handler with Some f -> f ~src msg | None -> ());
      drain ()
    end
  in
  drain ()

let inbox_length t ~node =
  check_node t node;
  Queue.length t.nodes.(node).inbox

(* Sheddable (data) entries only — the number the overload scenarios
   budget, since control traffic is never shed and would otherwise
   drown the signal. Falls back to the full length without a policy. *)
let inbox_data_length t ~node =
  check_node t node;
  match t.shed_policy with
  | None -> Queue.length t.nodes.(node).inbox
  | Some p ->
      Queue.fold (fun n (_, m) -> if p.sheddable m then n + 1 else n) 0 t.nodes.(node).inbox

let disconnect t a b =
  check_node t a;
  check_node t b;
  t.links.(a).(b).partitioned <- true;
  t.links.(b).(a).partitioned <- true

let release t ~src ~dst =
  let link = t.links.(src).(dst) in
  link.partitioned <- false;
  (* Manual mode: healed traffic stays queued for explicit delivery. *)
  if not t.manual then
    while not (Queue.is_empty link.held) do
      schedule_arrival t ~src ~dst (Queue.pop link.held)
    done

let reconnect t a b =
  check_node t a;
  check_node t b;
  release t ~src:a ~dst:b;
  release t ~src:b ~dst:a

let messages_sent t = t.sent

let messages_delivered t = t.delivered

let bytes_sent t = t.bytes

(* --- Manual-delivery introspection and control (model checking) --- *)

let manual t = t.manual

let partitioned t ~src ~dst =
  check_node t src;
  check_node t dst;
  t.links.(src).(dst).partitioned

let inflight t ~src ~dst =
  check_node t src;
  check_node t dst;
  Queue.length t.links.(src).(dst).held

let peek_inflight t ~src ~dst =
  check_node t src;
  check_node t dst;
  Queue.peek_opt t.links.(src).(dst).held

let iter_inflight t ~src ~dst f =
  check_node t src;
  check_node t dst;
  Queue.iter f t.links.(src).(dst).held

let manual_deliver t ~src ~dst =
  if not t.manual then invalid_arg "Network.manual_deliver: not in manual mode";
  check_node t src;
  check_node t dst;
  let link = t.links.(src).(dst) in
  if link.partitioned || Queue.is_empty link.held then false
  else begin
    let msg = Queue.pop link.held in
    handle t ~dst ~src msg;
    true
  end
