(* The SVS runtime benchmark.

   A 3-node [Svs_rt.Node] group over loopback TCP in one [Svs_rt.Loop],
   one process, one thread, no injected delay. The load generator calls
   the [Node] API directly. Node 0 publishes; node 2 is the member the
   workload perturbs (throttled, wedged or crashed).

     svsbench --workload W --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics. --trace 1 measures the
   workload twice with the same seed, untraced then with the trace
   events on and every layer call timed, replays the run's messages and
   log records through single layers, and prints the per-layer ledger.
   The last line of stdout is the result JSON. See perfbench/README.md
   for the metric definitions and the ledger's mapping. *)

module Loop = Svs_rt.Loop
module Node = Svs_rt.Node
module Tcp_mesh = Svs_rt.Tcp_mesh
module Types = Svs_core.Types
module View = Svs_core.View
module Wire_codec = Svs_core.Wire_codec
module Annotation = Svs_obs.Annotation
module Kenum_stream = Svs_obs.Kenum_stream
module Metrics = Svs_telemetry.Metrics
module Trace = Svs_telemetry.Trace
module Floats = Samples.Floats

let now = Samples.now

let n_nodes = 3

let publisher = 0

(* The perturbed member: throttled (quake-paced), wedged, or crashed. *)
let slow = 2

let tick_period = 0.0005

(* Set-ups per pass; the pass reports their median. *)
let setups_per_run = 3

(* Untraced passes per run, each [seconds / sub_runs] long. *)
let sub_runs = 5

let drain_timeout = 30.0

(* --- Workloads ----------------------------------------------------------- *)

type workload = Saturate | Quake_paced | Wedged | Churn

let workloads =
  [ ("saturate", Saturate); ("quake-paced", Quake_paced); ("wedged", Wedged); ("churn", Churn) ]

let workload_name w = fst (List.find (fun (_, x) -> x = w) workloads)

(* Closed loop: multicasts kept outstanding ahead of the slowest
   receiver. *)
let saturate_window = 1024

(* Open-loop offered rates, msgs/s. *)
let rate = function
  | Saturate -> 0.0
  | Quake_paced -> 20_000.0
  | Wedged -> 8_000.0
  | Churn -> 1_000.0

(* quake-paced: node 2's application pulls [pull_headroom] times the
   rate of the stream's messages that no later message obsoletes, the
   load purging can never remove. That is below the offered rate, so
   node 2 lags, and above what it must deliver, so purging at receive
   levels its queue off whatever the seed's stream. *)
let pull_headroom = 1.08

(* Share of a stream's messages that no later message obsoletes. *)
let unobsoleted_share anns =
  let n = Array.length anns in
  let covered = Array.make n false in
  Array.iteri
    (fun sn ann ->
      match ann with
      | Annotation.Kenum bv ->
          for d = 1 to min sn (Svs_obs.Bitvec.k bv) do
            if Svs_obs.Bitvec.get bv d then covered.(sn - d) <- true
          done
      | Annotation.Unrelated | Annotation.Tag _ | Annotation.Enum _ -> ())
    anns;
  float_of_int (Array.fold_left (fun c x -> if x then c else c + 1) 0 covered)
  /. float_of_int (max 1 n)

(* wedged: node 2 pauses reads for [pause] (± seeded jitter) at the
   start of every [cycle]. *)
let wedged_cycle = 1.2

let wedged_pause = 0.7

(* churn: a steady stretch between a rejoin and the next crash, and the
   delay between the exclusion and the restart. *)
let churn_steady = 0.8

let churn_restart_delay = 0.05

(* Processes at which every message must be served (delivered or
   covered) by the drain deadline. *)
let accountable = function Churn -> [ 0; 1 ] | Saturate | Quake_paced | Wedged -> [ 0; 1; 2 ]

(* Unthrottled receivers: latency and throughput are measured here. *)
let fresh_receivers = function
  | Saturate -> [ 1; 2 ]
  | Quake_paced | Wedged -> [ 1 ]
  | Churn -> [ 0; 1 ]

(* Detector that never fires within a run: the non-churn workloads
   expect no view change (a wedged member still beats but reads
   nothing, so it would suspect its peers). *)
let quiet_detector =
  {
    Svs_detector.Heartbeat.period = 0.1;
    initial_timeout = 120.0;
    timeout_increment = 1.0;
    max_timeout = 240.0;
  }

let node_config w ~metrics ~tracer =
  let base =
    { Node.default_config with stability_period = Some 0.5; metrics = Some metrics; tracer }
  in
  match w with
  | Saturate | Quake_paced -> { base with heartbeat = quiet_detector }
  | Wedged ->
      {
        base with
        heartbeat = quiet_detector;
        slow_member = { Node.report_after = 1.0; evict_after = None };
      }
  | Churn ->
      (* A fixed 350 ms timeout: the adaptive increment would otherwise
         grow it by 200 ms on every rejoin. *)
      let hb = Svs_detector.Heartbeat.default_config in
      { base with heartbeat = { hb with max_timeout = hb.initial_timeout } }

(* --- Inputs -------------------------------------------------------------- *)

(* What the generator multicasts. Message [i] (publish index) carries
   payload [make i]; the [k]-th accepted multicast carries [ann k], so
   the annotation stream advances only on accepted multicasts. *)
type 'p input = {
  codec : 'p Wire_codec.payload_codec;
  make : int -> 'p;
  index : 'p -> int;
  ann : int -> Annotation.t;
  pull_rate : float;  (* node 2's application pull rate on quake-paced, msgs/s *)
}

(* The paper-calibrated Quake stream (k-enumeration annotations over
   batches and commits), seeded; long runs cycle it. The first
   messages of a stream reference nothing before it, so the cycle
   boundary is sound. *)
let quake_anns ~seed =
  let trace =
    Svs_workload.Synthetic.generate { Svs_workload.Synthetic.default with rounds = 12_000; seed }
  in
  Array.map
    (fun m -> m.Svs_workload.Stream.ann)
    (Svs_workload.Stream.of_trace trace)

(* An obsolescence chain: every message directly obsoletes its
   predecessor (k = 8, so the bitmap is transitive over 8 messages). *)
let chain_anns n =
  let stream = Kenum_stream.create ~k:8 () in
  Array.init n (fun i -> Annotation.Kenum (Kenum_stream.push stream ~direct:(if i = 0 then [] else [ 1 ])))

let cycled anns k = anns.(k mod Array.length anns)

(* Seeded payload bodies: publish index [i] carries body [i mod 61]. *)
let bodies ~seed ~bytes =
  let rng = Random.State.make [| seed; bytes |] in
  Array.init 61 (fun _ -> String.init bytes (fun _ -> Char.chr (32 + Random.State.int rng 95)))

let int_input ~ann =
  { codec = Wire_codec.int_codec; make = Fun.id; index = Fun.id; ann; pull_rate = infinity }

let string_input ~seed ~bytes ~ann =
  let pool = bodies ~seed ~bytes in
  {
    codec = Wire_codec.pair_codec Wire_codec.int_codec Wire_codec.string_codec;
    make = (fun i -> (i, pool.(i mod Array.length pool)));
    index = fst;
    ann;
    pull_rate = infinity;
  }

(* --- Small helpers -------------------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let find_from s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go from

(* An integer field of one peer's entry in [Node.status_json]. *)
let peer_field json ~peer ~field =
  match find_from json (Printf.sprintf "{\"peer\":%d," peer) 0 with
  | None -> 0
  | Some at -> (
      match find_from json (Printf.sprintf "\"%s\":" field) at with
      | None -> 0
      | Some f ->
          let start = f + String.length field + 3 in
          let stop = ref start in
          while !stop < String.length json && json.[!stop] >= '0' && json.[!stop] <= '9' do
            incr stop
          done;
          int_of_string (String.sub json start (!stop - start)))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let pct sorted p = Samples.percentile sorted p

let median = Samples.median_of_list

(* --- One pass: set up, measure, drain, check ---------------------------- *)

type pass = {
  setup_s : float;
  window_s : float;
  attempted : int;
  published : int;
  failed : int;
  msgs_per_s : float;
  latency : float array;  (* seconds, sorted *)
  stale : float array;
  words_per_msg : float;
  top_heap_mib : float;
  minor_gcs : int;
  major_gcs : int;
  cpu_per_msg : float;
  problems : string list;  (* oracle violations and invalid-run reasons *)
  catchup : float list;  (* seconds, per cycle *)
  viewchange : float list;
  rejoin : float list;
  suspect : float list;
  agree : float list;
  join_sync : float list;
  recover : float list;
  (* Timed layer calls (traced pass). *)
  multicast_us : float array;
  deliver_us : float array;
  lag : float array;
  cpu_s : float;  (* process CPU time in the window *)
  residual_s : float;  (* of which outside benchmark callbacks *)
  delivered_in_window : int;
  queue_max : int;
  peak_pending : int;
  would_block_fraction : float;
  blocked_retries : int;
  purged_at_receive : int;
  shed_healthy : int;
  shed_victim : int;
  registry : Metrics.t;
  stages : Layers.stage_report option;
}

type 'p group = {
  loop : Loop.t;
  listeners : (int * Unix.file_descr * Unix.sockaddr) list;
  nodes : 'p Node.t array;
}

let connected g =
  Array.for_all
    (fun node ->
      List.length (Node.view node).View.members = n_nodes
      && not (contains (Node.status_json node) "\"up\":false"))
    g.nodes

(* Listeners, nodes with fresh logs, and every link up. *)
let start_group input ~config ~dir =
  let loop = Loop.create () in
  let listeners =
    List.init n_nodes (fun i ->
        let fd, addr = Tcp_mesh.listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
        (i, fd, addr))
  in
  let peers = List.map (fun (i, _, addr) -> (i, addr)) listeners in
  let nodes =
    Array.of_list
      (List.map
         (fun (i, fd, _) ->
           Node.create loop ~me:i ~listen_fd:fd ~peers ~payload_codec:input.codec ~config
             ~data_dir:(Filename.concat dir (Printf.sprintf "n%d" i))
             ())
         listeners)
  in
  let g = { loop; listeners; nodes } in
  Loop.run ~until:(fun () -> connected g) ~timeout:10.0 loop;
  if not (connected g) then failwith "set-up: the group did not connect within 10 s";
  g

let stop_group g =
  Array.iter Node.shutdown g.nodes;
  Loop.run ~timeout:0.02 g.loop

(* Set up [setups_per_run] groups, timing each; keep the last. *)
let setup input ~config ~dir =
  let rec go k times =
    let sub = Filename.concat dir (Printf.sprintf "setup%d" k) in
    let t0 = now () in
    let g = start_group input ~config ~dir:sub in
    let times = (now () -. t0) :: times in
    if k + 1 < setups_per_run then begin
      stop_group g;
      rm_rf sub;
      go (k + 1) times
    end
    else (g, sub, median times)
  in
  go 0 []

type churn_state =
  | Steady of float  (* next crash at *)
  | Crashed of { at : float; base : int array; mutable first_suspect : float option }
  | Down of { restart_at : float }
  | Joining of { created : float; t_create : float; mutable member_at : float option }

let run_pass (type p) w (input : p input) ~seed ~sub ~seconds ~traced ~dir : pass =
  let metrics = Metrics.create () in
  let tracer = if traced then Trace.memory () else Trace.nop in
  let config = node_config w ~metrics ~tracer in
  let g, group_dir, setup_s = setup input ~config ~dir in
  let loop = g.loop in
  let nodes = g.nodes in
  let log = Oracle.create ~n_nodes ~ann:input.ann in
  let stages = Layers.stages ~n_nodes in
  let rate = rate w in
  let fresh = fresh_receivers w in
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  (* Generator state. *)
  let due = Floats.create () in
  let next_index = ref 0 in
  let accepted = ref 0 in
  let refused = ref 0 in
  let blocked_retries = ref 0 in
  let lag = Floats.create () in
  (* Receiver state. *)
  let delivered = Array.make n_nodes 0 in
  let delivered_in_window = Array.make n_nodes 0 in
  let last_sn = Array.make n_nodes (-1) in
  (* Delivery time by sequence number, at the unthrottled receivers. *)
  let delivered_at = Array.init n_nodes (fun _ -> Floats.create ()) in
  let latency = Floats.create ~capacity:65536 () in
  let stale = Floats.create ~capacity:65536 () in
  let multicast_us = Floats.create () in
  let deliver_us = Floats.create () in
  (* Window. *)
  let t0 = ref infinity in
  let deadline = ref infinity in
  let in_window t = t >= !t0 && t < !deadline in
  let window_closed = ref false in
  let words0 = ref 0.0 and words1 = ref 0.0 in
  let gc0 = ref (Gc.quick_stat ()) and gc1 = ref (Gc.quick_stat ()) in
  let cpu0 = ref 0.0 and cpu1 = ref 0.0 in
  let published_at_close = ref 0 in
  let callbacks = ref 0.0 in
  let ticks = ref 0 and blocked_ticks = ref 0 in
  let queue_max = ref 0 and peak_pending = ref 0 in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  (* Perturbation cycles. *)
  let rng = Random.State.make [| seed; sub |] in
  let catchup = ref [] and viewchange = ref [] and rejoin = ref [] in
  let suspect = ref [] and agree = ref [] and join_sync = ref [] and recover = ref [] in
  let paused = ref false in
  let resume_at = ref 0.0 in
  let next_pause = ref infinity in
  let catchup_target = ref None in
  let churn = ref (Steady infinity) in
  let excluded_at = Array.make n_nodes None in
  let rejoined_at = ref None in
  let unexpected_views = ref 0 in
  (* Layer calls, timed in the traced pass. *)
  let send payload ~ann =
    let node = nodes.(publisher) in
    let call () =
      match w with
      | Wedged -> Node.try_multicast node ~ann payload
      | Saturate | Quake_paced | Churn ->
          (Node.multicast node ~ann payload
            :> (p Types.data, [ `Blocked | `Not_member | `Would_block ]) result)
    in
    if traced then begin
      let a = now () in
      let r = call () in
      Floats.push multicast_us ((now () -. a) *. 1e6);
      r
    end
    else call ()
  in
  let deliver node =
    if traced then begin
      let a = now () in
      let r = Node.deliver node in
      (match r with Some (Types.Data _) -> Floats.push deliver_us ((now () -. a) *. 1e6) | _ -> ());
      r
    end
    else Node.deliver node
  in
  let on_data i (d : p Types.data) =
    let t = now () in
    let idx = input.index d.Types.payload in
    let sn = d.Types.id.Svs_obs.Msg_id.sn in
    Oracle.record_delivery log ~p:i ~sn ~view_id:d.Types.view_id;
    delivered.(i) <- delivered.(i) + 1;
    if sn > last_sn.(i) then last_sn.(i) <- sn;
    if in_window t then delivered_in_window.(i) <- delivered_in_window.(i) + 1;
    let age = t -. Floats.get due idx in
    if List.mem i fresh then begin
      Floats.ensure delivered_at.(i) (sn + 1);
      Floats.set delivered_at.(i) sn t;
      Floats.push latency age
    end;
    if i = slow && in_window t then Floats.push stale age;
    match !catchup_target with
    | Some (resumed, target) when i = slow && sn >= target ->
        catchup := (t -. resumed) :: !catchup;
        catchup_target := None
    | Some _ | None -> ()
  in
  let on_view i (v : View.t) =
    let t = now () in
    Oracle.record_install log ~p:i v;
    match w with
    | Churn ->
        if i <> slow && not (View.mem slow v) then excluded_at.(i) <- Some t;
        if i = publisher && View.mem slow v then rejoined_at := Some t
    | Saturate | Quake_paced | Wedged -> incr unexpected_views
  in
  let consume i ~limit =
    let node = nodes.(i) in
    let rec go k =
      if k >= limit then k
      else
        match deliver node with
        | None -> k
        | Some (Types.Data d) ->
            on_data i d;
            go (k + 1)
        | Some (Types.View_change v) ->
            on_view i v;
            go k
    in
    go 0
  in
  let pull_credit = ref 0.0 in
  let last_pull = ref 0.0 in
  let consume_all t =
    for i = 0 to n_nodes - 1 do
      if i = slow && w = Quake_paced && not !window_closed then begin
        pull_credit := !pull_credit +. ((t -. Float.max !last_pull !t0) *. input.pull_rate);
        last_pull := t;
        let pulled = consume i ~limit:(int_of_float !pull_credit) in
        pull_credit := !pull_credit -. float_of_int pulled
      end
      else ignore (consume i ~limit:max_int)
    done
  in
  (* A view change blocks multicasts; the application holds what falls
     due meanwhile and sends it once the view installs. Latency of a
     held message starts at that send, and the hold shows as generator
     lag instead. *)
  let was_blocked = ref false in
  let held_until = ref neg_infinity in
  let multicast_one idx ~due_t =
    Floats.ensure due (idx + 1);
    Floats.set due idx due_t;
    let t_call = now () in
    match send (input.make idx) ~ann:(input.ann !accepted) with
    | Ok d ->
        if !was_blocked then begin
          was_blocked := false;
          held_until := t_call
        end;
        if due_t <= !held_until then Floats.set due idx t_call;
        let sn = d.Types.id.Svs_obs.Msg_id.sn in
        if sn <> !accepted then
          problem (Printf.sprintf "multicast %d got sequence number %d" !accepted sn);
        Oracle.record_multicast log ~sn ~view_id:d.Types.view_id;
        if rate > 0.0 then Floats.push lag (t_call -. due_t);
        incr accepted;
        incr next_index;
        true
    | Error `Blocked ->
        (* The paper's guard: retry once the view change installs. *)
        was_blocked := true;
        incr blocked_retries;
        false
    | Error (`Would_block | `Not_member) ->
        incr refused;
        incr next_index;
        true
  in
  let publish t =
    if t < !deadline then
      if rate = 0.0 then begin
        let floor = List.fold_left (fun m i -> min m delivered.(i)) max_int fresh in
        let go = ref true in
        while !go && !accepted - floor < saturate_window do
          go := multicast_one !next_index ~due_t:(now ())
        done
      end
      else begin
        let target = int_of_float ((t -. !t0) *. rate) + 1 in
        let go = ref true in
        while !go && !next_index < target do
          go := multicast_one !next_index ~due_t:(!t0 +. (float_of_int !next_index /. rate))
        done
      end
  in
  let wedge t =
    if !paused && t >= !resume_at then begin
      Node.resume_reads nodes.(slow);
      paused := false;
      if !accepted > 0 then catchup_target := Some (t, !accepted - 1)
    end
    else if (not !paused) && t >= !next_pause then begin
      let len = wedged_pause *. (0.9 +. Random.State.float rng 0.2) in
      if t +. len +. 0.1 < !deadline then begin
        Node.pause_reads nodes.(slow);
        paused := true;
        resume_at := t +. len;
        next_pause := !next_pause +. wedged_cycle
      end
      else next_pause := infinity
    end
  in
  let restart () =
    let _, _, addr = List.nth g.listeners slow in
    let fd, _ = Tcp_mesh.listener addr in
    let peers = List.map (fun (i, _, addr) -> (i, addr)) g.listeners in
    let a = now () in
    let node =
      Node.create loop ~me:slow ~listen_fd:fd ~peers ~payload_codec:input.codec ~config
        ~data_dir:(Filename.concat group_dir (Printf.sprintf "n%d" slow))
        ()
    in
    let b = now () in
    recover := (b -. a) :: !recover;
    nodes.(slow) <- node;
    (a, b)
  in
  let churn_step t =
    match !churn with
    | Steady at ->
        if t >= at && t < !deadline then begin
          Node.shutdown nodes.(slow);
          excluded_at.(0) <- None;
          excluded_at.(1) <- None;
          churn :=
            Crashed
              { at = t; base = Array.map Node.suspicions nodes; first_suspect = None }
        end
    | Crashed c -> (
        if c.first_suspect = None
           && List.exists (fun i -> Node.suspicions nodes.(i) > c.base.(i)) [ 0; 1 ]
        then c.first_suspect <- Some t;
        match (excluded_at.(0), excluded_at.(1)) with
        | Some a, Some b ->
            let agreed = Float.max a b in
            viewchange := (agreed -. c.at) :: !viewchange;
            (match c.first_suspect with
            | Some s ->
                suspect := (s -. c.at) :: !suspect;
                agree := (agreed -. s) :: !agree
            | None -> ());
            churn := Down { restart_at = t +. churn_restart_delay }
        | _ -> ())
    | Down d ->
        if t >= d.restart_at then begin
          rejoined_at := None;
          let t_create, created = restart () in
          churn := Joining { created; t_create; member_at = None }
        end
    | Joining j -> (
        if j.member_at = None && Node.is_member nodes.(slow) then begin
          j.member_at <- Some t;
          join_sync := (t -. j.created) :: !join_sync
        end;
        match (j.member_at, !rejoined_at) with
        | Some _, Some r ->
            rejoin := (r -. j.t_create) :: !rejoin;
            churn := Steady (t +. churn_steady)
        | _ -> ())
  in
  let poll () =
    incr ticks;
    let pub = nodes.(publisher) in
    if Node.would_block pub then incr blocked_ticks;
    queue_max := max !queue_max (Node.pending nodes.(slow));
    for i = 1 to n_nodes - 1 do
      peak_pending := max !peak_pending (Node.pending_to pub ~dst:i)
    done
  in
  let close_window () =
    window_closed := true;
    words1 := Gc.minor_words ();
    gc1 := Gc.quick_stat ();
    cpu1 := cpu ();
    published_at_close := !accepted
  in
  let tick () =
    let a = now () in
    if a >= !deadline && not !window_closed then close_window ();
    publish a;
    (match w with
    | Wedged -> wedge a
    | Churn -> churn_step a
    | Saturate | Quake_paced -> ());
    consume_all a;
    if !t0 < infinity && not !window_closed then poll ();
    if traced then Layers.absorb stages tracer;
    let b = now () in
    if in_window a then callbacks := !callbacks +. (Float.min b !deadline -. a);
    true
  in
  (* Measured window. *)
  if traced then Trace.clear tracer;
  Gc.full_major ();
  let start = now () in
  t0 := start;
  deadline := start +. seconds;
  last_pull := start;
  next_pause := start +. 0.1;
  churn := Steady (start +. churn_steady);
  words0 := Gc.minor_words ();
  gc0 := Gc.quick_stat ();
  cpu0 := cpu ();
  let timer = Loop.every loop ~period:tick_period tick in
  Loop.run ~until:(fun () -> now () >= !deadline) loop;
  (* Drain: publishing has stopped; every consumer pulls eagerly. *)
  if !paused then begin
    Node.resume_reads nodes.(slow);
    paused := false
  end;
  let drained () =
    List.for_all (fun i -> last_sn.(i) >= !accepted - 1) (accountable w)
    && match !churn with Steady _ -> true | Crashed _ | Down _ | Joining _ -> false
  in
  Loop.run ~until:drained ~timeout:drain_timeout loop;
  if not !window_closed then close_window ();
  if not (drained ()) then problem "drain deadline passed";
  Loop.cancel timer;
  (* Per-peer shed counts come from the publisher's status. *)
  let status = Node.status_json nodes.(publisher) in
  let shed_victim = peer_field status ~peer:slow ~field:"shed" in
  let shed_healthy = peer_field status ~peer:1 ~field:"shed" in
  let purged_at_receive =
    Array.fold_left (fun acc n -> acc + Node.purged_at n Trace.At_receive) 0 nodes
  in
  if traced then Layers.absorb stages tracer;
  Array.iter Node.shutdown nodes;
  Loop.run ~timeout:0.05 loop;
  (* Checks, outside the timed window. *)
  let strict = w = Saturate in
  let receivers = accountable w in
  let converged = match w with Churn -> Some [ 0; 1; 2 ] | _ -> None in
  let v = Oracle.verdict log ~strict ~receivers ~converged in
  List.iter problem (List.filteri (fun i _ -> i < 5) v.Oracle.violations);
  if not (Oracle.self_test log ~strict ~receivers ~converged) then
    problem "self-test: the oracle accepted a log with an uncovered delivery dropped";
  if !unexpected_views > 0 then problem (Printf.sprintf "%d unexpected view changes" !unexpected_views);
  if w = Wedged && shed_healthy > 0 then
    problem (Printf.sprintf "%d frames shed on the healthy link" shed_healthy);
  let published = Oracle.multicasts log in
  let window_s = seconds in
  (* Throughput: messages served (delivered, or covered by a delivered
     message) per second at the slowest unthrottled receiver. *)
  let rate_at i =
    let at = delivered_at.(i) in
    let served =
      Oracle.served_times log ~delivered_at:(fun sn ->
          if sn < Floats.length at then Floats.get at sn else Float.nan)
    in
    let count, last =
      Array.fold_left
        (fun (n, last) t -> if in_window t then (n + 1, Float.max last t) else (n, last))
        (0, !t0) served
    in
    if count = 0 then 0.0 else float_of_int count /. (last -. !t0)
  in
  let msgs_per_s = List.fold_left (fun m i -> Float.min m (rate_at i)) infinity fresh in
  let in_window_msgs = max 1 !published_at_close in
  let all_delivered = Array.fold_left ( + ) 0 delivered_in_window in
  let result =
    {
      setup_s;
      window_s;
      attempted = published + !refused;
      published;
      failed = !refused + v.Oracle.unserved;
      msgs_per_s;
      latency = Floats.sorted latency;
      stale = Floats.sorted stale;
      words_per_msg = (!words1 -. !words0) /. float_of_int in_window_msgs;
      top_heap_mib =
        float_of_int !gc1.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0;
      minor_gcs = !gc1.Gc.minor_collections - !gc0.Gc.minor_collections;
      major_gcs = !gc1.Gc.major_collections - !gc0.Gc.major_collections;
      cpu_per_msg = (!cpu1 -. !cpu0) /. float_of_int in_window_msgs;
      problems = List.rev !problems;
      catchup = !catchup;
      viewchange = !viewchange;
      rejoin = !rejoin;
      suspect = !suspect;
      agree = !agree;
      join_sync = !join_sync;
      recover = !recover;
      multicast_us = Floats.sorted multicast_us;
      deliver_us = Floats.sorted deliver_us;
      lag = Floats.sorted lag;
      cpu_s = !cpu1 -. !cpu0;
      residual_s = !cpu1 -. !cpu0 -. !callbacks;
      delivered_in_window = all_delivered;
      queue_max = !queue_max;
      peak_pending = !peak_pending;
      would_block_fraction =
        (if !ticks = 0 then 0.0 else float_of_int !blocked_ticks /. float_of_int !ticks);
      blocked_retries = !blocked_retries;
      purged_at_receive;
      shed_healthy;
      shed_victim;
      registry = metrics;
      stages = (if traced then Some (Layers.stage_report stages) else None);
    }
  in
  rm_rf group_dir;
  result

(* --- Metrics ----------------------------------------------------------------- *)

let ms x = x *. 1000.0

let served_fraction p =
  if p.attempted = 0 then 0.0 else 1.0 -. (float_of_int p.failed /. float_of_int p.attempted)

let end_to_end p =
  [
    ("setup_s", p.setup_s, "s");
    ("msgs_per_s", p.msgs_per_s, "1/s");
    ("latency_p50_ms", ms (pct p.latency 50.0), "ms");
    ("latency_p99_ms", ms (pct p.latency 99.0), "ms");
    ("stale_p50_ms", ms (pct p.stale 50.0), "ms");
    ("stale_p99_ms", ms (pct p.stale 99.0), "ms");
    ("served_fraction", served_fraction p, "ratio");
    ("words_per_msg", p.words_per_msg, "words");
    ("top_heap_mib", p.top_heap_mib, "MiB");
  ]

(* Which end-to-end metric, on which workload, each layer metric should
   move. *)
let ledger_map =
  [
    ("node.multicast_us_p50", "msgs_per_s", "saturate");
    ("node.multicast_us_p99", "msgs_per_s", "saturate");
    ("node.deliver_us_p50", "latency_p50_ms", "quake-paced");
    ("loop.residual_us_per_msg", "msgs_per_s", "saturate");
    ("gen.lag_ms_p99", "latency_p99_ms", "quake-paced,wedged,churn");
    ("wire_codec.encode_ns", "msgs_per_s", "saturate");
    ("wire_codec.decode_ns", "latency_p50_ms", "wedged");
    ("wire_codec.bytes_per_msg", "msgs_per_s", "saturate");
    ("wire_codec.words_per_msg", "words_per_msg", "saturate");
    ("protocol.multicast_ns", "msgs_per_s", "saturate");
    ("protocol.receive_ns", "stale_p50_ms", "quake-paced");
    ("protocol.deliver_ns", "stale_p50_ms", "quake-paced");
    ("protocol.words_per_msg", "msgs_per_s", "saturate");
    ("protocol.purge_ratio", "stale_p99_ms", "quake-paced");
    ("protocol.queue_depth_max", "stale_p99_ms", "quake-paced");
    ("tcp_mesh.frames_per_flush", "msgs_per_s", "saturate");
    ("tcp_mesh.writes_per_kmsg", "latency_p50_ms", "quake-paced");
    ("tcp_mesh.bytes_out_per_msg", "msgs_per_s", "saturate");
    ("tcp_mesh.peak_pending_kib", "top_heap_mib", "wedged");
    ("tcp_mesh.shed_victim", "catchup_ms", "wedged");
    ("tcp_mesh.shed_healthy", "served_fraction", "wedged");
    ("tcp_mesh.would_block_fraction", "served_fraction", "wedged");
    ("wal.appends_per_msg", "msgs_per_s", "saturate");
    ("wal.syncs_per_s", "latency_p99_ms", "quake-paced");
    ("wal.append_ns", "msgs_per_s", "saturate");
    ("wal.sync_us_p50", "latency_p99_ms", "quake-paced");
    ("wal.sync_us_p99", "latency_p99_ms", "quake-paced");
    ("wal.recover_ms", "rejoin_ms", "churn");
    ("heartbeat.suspect_ms", "viewchange_ms", "churn");
    ("viewchange.agree_ms", "viewchange_ms", "churn");
    ("join.sync_ms", "rejoin_ms", "churn");
    ("stage.mcast_to_tx_us_p50", "latency_p50_ms", "quake-paced");
    ("stage.mcast_to_tx_us_p99", "latency_p99_ms", "quake-paced");
    ("stage.tx_to_rx_us_p50", "latency_p50_ms", "quake-paced");
    ("stage.tx_to_rx_us_p99", "latency_p99_ms", "quake-paced");
    ("stage.rx_to_deliver_us_p50", "latency_p50_ms", "quake-paced");
    ("stage.rx_to_deliver_us_p99", "latency_p99_ms", "quake-paced");
    ("stage.deliver_to_stable_ms", "top_heap_mib", "saturate");
    ("gc.minor_per_kmsg", "words_per_msg", "saturate");
    ("gc.major_collections", "latency_p99_ms", "quake-paced");
    ("catchup_ms", "catchup_ms", "wedged");
    ("viewchange_ms", "viewchange_ms", "churn");
    ("rejoin_ms", "rejoin_ms", "churn");
    ("failed_fraction", "served_fraction", "all");
    ("trace.overhead_pct", "(tracing cost)", "all");
  ]

let per_msg count p = float_of_int count /. float_of_int (max 1 p.published)

let sum_hist reg name =
  List.fold_left
    (fun (sum, count) (ins : Metrics.instrument) ->
      match ins.Metrics.value with
      | Metrics.Histogram h when ins.Metrics.name = name ->
          (sum +. Metrics.Histogram.sum h, count + Metrics.Histogram.count h)
      | _ -> (sum, count))
    (0.0, 0) (Metrics.instruments reg)

let median_ms xs = ms (median xs)

(* The per-layer ledger of a traced pass [p], with [base] the untraced
   pass of the same seed and [replays] the single-layer replays. *)
let per_layer ~base p (codec : Layers.codec_report) (proto : Layers.protocol_report)
    (wal : Layers.wal_report) =
  let reg = p.registry in
  let frames, _ = sum_hist reg "tcp_batch_frames" in
  let flushes = Metrics.sum_counters reg "tcp_flushes_total" in
  let stage f q = match p.stages with Some s -> pct (f s) q *. 1e6 | None -> 0.0 in
  let overhead =
    if base.cpu_per_msg <= 0.0 then 0.0
    else (p.cpu_per_msg -. base.cpu_per_msg) /. base.cpu_per_msg *. 100.0
  in
  [
    ("node.multicast_us_p50", pct p.multicast_us 50.0, "us");
    ("node.multicast_us_p99", pct p.multicast_us 99.0, "us");
    ("node.deliver_us_p50", pct p.deliver_us 50.0, "us");
    ( "loop.residual_us_per_msg",
      p.residual_s /. float_of_int (max 1 p.delivered_in_window) *. 1e6,
      "us" );
    ("gen.lag_ms_p99", ms (pct p.lag 99.0), "ms");
    ("wire_codec.encode_ns", codec.Layers.encode_ns, "ns");
    ("wire_codec.decode_ns", codec.Layers.decode_ns, "ns");
    ("wire_codec.bytes_per_msg", codec.Layers.bytes_per_msg, "B");
    ("wire_codec.words_per_msg", codec.Layers.words_per_msg, "words");
    ("protocol.multicast_ns", proto.Layers.multicast_ns, "ns");
    ("protocol.receive_ns", proto.Layers.receive_ns, "ns");
    ("protocol.deliver_ns", proto.Layers.deliver_ns, "ns");
    ("protocol.words_per_msg", proto.Layers.proto_words_per_msg, "words");
    ( "protocol.purge_ratio",
      float_of_int p.purged_at_receive /. float_of_int (max 1 (p.published * n_nodes)),
      "ratio" );
    ("protocol.queue_depth_max", float_of_int p.queue_max, "msgs");
    ("tcp_mesh.frames_per_flush", frames /. float_of_int (max 1 flushes), "frames");
    ("tcp_mesh.writes_per_kmsg", per_msg flushes p *. 1000.0, "writes");
    ("tcp_mesh.bytes_out_per_msg", per_msg (Metrics.sum_counters reg "tcp_bytes_out_total") p, "B");
    ("tcp_mesh.peak_pending_kib", float_of_int p.peak_pending /. 1024.0, "KiB");
    ("tcp_mesh.shed_victim", float_of_int p.shed_victim, "frames");
    ("tcp_mesh.shed_healthy", float_of_int p.shed_healthy, "frames");
    ("tcp_mesh.would_block_fraction", p.would_block_fraction, "ratio");
    ("wal.appends_per_msg", per_msg (Metrics.sum_counters reg "wal_appends_total") p, "appends");
    ( "wal.syncs_per_s",
      float_of_int (Metrics.sum_counters reg "wal_syncs_total") /. p.window_s,
      "1/s" );
    ("wal.append_ns", wal.Layers.append_ns, "ns");
    ("wal.sync_us_p50", pct wal.Layers.sync_us 50.0, "us");
    ("wal.sync_us_p99", pct wal.Layers.sync_us 99.0, "us");
    ("wal.recover_ms", median_ms p.recover, "ms");
    ("heartbeat.suspect_ms", median_ms p.suspect, "ms");
    ("viewchange.agree_ms", median_ms p.agree, "ms");
    ("join.sync_ms", median_ms p.join_sync, "ms");
    ("stage.mcast_to_tx_us_p50", stage (fun s -> s.Layers.mcast_to_tx) 50.0, "us");
    ("stage.mcast_to_tx_us_p99", stage (fun s -> s.Layers.mcast_to_tx) 99.0, "us");
    ("stage.tx_to_rx_us_p50", stage (fun s -> s.Layers.tx_to_rx) 50.0, "us");
    ("stage.tx_to_rx_us_p99", stage (fun s -> s.Layers.tx_to_rx) 99.0, "us");
    ("stage.rx_to_deliver_us_p50", stage (fun s -> s.Layers.rx_to_deliver) 50.0, "us");
    ("stage.rx_to_deliver_us_p99", stage (fun s -> s.Layers.rx_to_deliver) 99.0, "us");
    ("stage.deliver_to_stable_ms", stage (fun s -> s.Layers.deliver_to_stable) 50.0 /. 1000.0, "ms");
    ("gc.minor_per_kmsg", per_msg p.minor_gcs p *. 1000.0, "count");
    ("gc.major_collections", float_of_int p.major_gcs, "count");
    ("catchup_ms", median_ms base.catchup, "ms");
    ("viewchange_ms", median_ms base.viewchange, "ms");
    ("rejoin_ms", median_ms base.rejoin, "ms");
    ("failed_fraction", 1.0 -. served_fraction base, "ratio");
    ("trace.overhead_pct", overhead, "%");
  ]

(* --- Output ------------------------------------------------------------------ *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let result_json ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number value) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)

let print_pass label p =
  Printf.printf "%s: %d published, %d attempted, %d failed, %d latency samples, %d stale samples\n"
    label p.published p.attempted p.failed (Array.length p.latency) (Array.length p.stale);
  Printf.printf
    "  node 2 queue max %d, peak pending %d KiB, shed to node 2/node 1 %d/%d, %d cycles, %d \
     blocked retries\n"
    p.queue_max (p.peak_pending / 1024) p.shed_victim p.shed_healthy
    (List.length p.catchup + List.length p.rejoin)
    p.blocked_retries;
  List.iter
    (fun (name, value, unit) -> Printf.printf "  %-18s %14.4f %s\n" name value unit)
    (end_to_end p);
  Printf.printf "  cpu %.3f s in window, %.3f us/msg\n" p.cpu_s (p.cpu_per_msg *. 1e6);
  Printf.printf "  latency tail (ms):%s\n"
    (String.concat ""
       (List.map
          (fun q -> Printf.sprintf " p%g=%.3f" q (ms (pct p.latency q)))
          [ 90.; 95.; 98.; 99.; 99.5; 99.8 ]));
  List.iter (fun s -> Printf.printf "  PROBLEM: %s\n" s) p.problems

let print_ledger w ~e2e ~traced layer =
  let e2e_traced = end_to_end traced in
  Printf.printf "\nper-layer ledger (%s, traced pass):\n" (workload_name w);
  Printf.printf "  %-28s %14s %-6s  %-16s %s\n" "layer metric" "value" "unit" "moves" "on";
  List.iter
    (fun (name, value, unit) ->
      let moves, on =
        match List.find_opt (fun (n, _, _) -> n = name) ledger_map with
        | Some (_, m, o) -> (m, o)
        | None -> ("", "")
      in
      Printf.printf "  %-28s %14.4f %-6s  %-16s %s\n" name value unit moves on)
    layer;
  Printf.printf "  %-28s %14.4f %-6s  (share of the window's CPU time outside benchmark callbacks)\n"
    "residual" (traced.residual_s /. Float.max 1e-9 traced.cpu_s *. 100.0) "%";
  Printf.printf "\n  end-to-end, untraced passes vs the traced pass of the same seed:\n";
  List.iter2
    (fun (name, a, unit) (_, b, _) -> Printf.printf "  %-18s %14.4f %14.4f %s\n" name a b unit)
    e2e e2e_traced

(* --- Main ---------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: svsbench --workload <saturate|quake-paced|wedged|churn> --seed N --seconds S --trace 0|1";
  exit 2

let replay_inputs (type p) (input : p input) p_pass ~dir =
  let n = min 20_000 (max 1 p_pass.published) in
  let payloads = Array.init n input.make in
  let anns = Array.init n input.ann in
  let msgs =
    Array.init (min n 4096) (fun i ->
        { Types.id = Svs_obs.Msg_id.make ~sender:0 ~sn:i; view_id = 0; payload = payloads.(i); ann = anns.(i) })
  in
  let codec = Layers.wire_codec input.codec msgs ~budget:0.3 in
  (* quake-paced's pull rule, applied to this workload's stream. *)
  let pull_ratio = Float.min 1.0 (pull_headroom *. unobsoleted_share anns) in
  let proto = Layers.protocol payloads anns ~pull_ratio ~budget:0.5 in
  let reg = p_pass.registry in
  let node1 = [ ("node", "1") ] in
  let appends = Metrics.counter_value reg ~labels:node1 "wal_appends_total" in
  let syncs = Metrics.counter_value reg ~labels:node1 "wal_syncs_total" in
  let wal =
    Layers.wal ~dir:(Filename.concat dir "wal-replay")
      ~appends_per_sync:(max 1 (appends / max 1 syncs))
      ~syncs ~budget:1.0
  in
  (codec, proto, wal)

(* The untraced measurement: [sub_runs] passes of equal length, each on
   a fresh group. Latency and staleness percentiles are taken over the
   samples of all passes, the heap high-water mark is the first pass's
   (a fresh process, before any analysis allocated), and every other
   figure is the median over the passes; cycle samples, counts and
   problems are pooled. *)
let untraced w input ~seed ~seconds ~dir =
  let passes =
    List.init sub_runs (fun k ->
        let p =
          run_pass w input ~seed ~sub:k
            ~seconds:(seconds /. float_of_int sub_runs)
            ~traced:false
            ~dir:(Filename.concat dir (Printf.sprintf "untraced%d" k))
        in
        print_pass (Printf.sprintf "untraced pass %d" k) p;
        p)
  in
  let med f = median (List.map f passes) in
  let merged f =
    let a = Array.concat (List.map f passes) in
    Array.stable_sort Float.compare a;
    a
  in
  let pooled =
    {
      (List.hd passes) with
      setup_s = med (fun p -> p.setup_s);
      msgs_per_s = med (fun p -> p.msgs_per_s);
      words_per_msg = med (fun p -> p.words_per_msg);
      cpu_per_msg = med (fun p -> p.cpu_per_msg);
      latency = merged (fun p -> p.latency);
      stale = merged (fun p -> p.stale);
      attempted = List.fold_left (fun n p -> n + p.attempted) 0 passes;
      failed = List.fold_left (fun n p -> n + p.failed) 0 passes;
      problems = List.concat_map (fun p -> p.problems) passes;
      catchup = List.concat_map (fun p -> p.catchup) passes;
      viewchange = List.concat_map (fun p -> p.viewchange) passes;
      rejoin = List.concat_map (fun p -> p.rejoin) passes;
    }
  in
  (match w with
  | Wedged when List.length pooled.catchup < 10 ->
      Printf.printf "note: %d pause cycles (10 need --seconds 20)\n" (List.length pooled.catchup)
  | Churn when List.length pooled.rejoin < 10 ->
      Printf.printf "note: %d crash cycles (10 need --seconds 20)\n" (List.length pooled.rejoin)
  | _ -> ());
  (end_to_end pooled, pooled)

let run_workload (type p) w (input : p input) ~seed ~seconds ~traced ~dir =
  let e2e, base = untraced w input ~seed ~seconds ~dir in
  Printf.printf "end-to-end over %d passes:\n" sub_runs;
  List.iter (fun (name, value, unit) -> Printf.printf "  %-18s %14.4f %s\n" name value unit) e2e;
  if not traced then (base.problems = [], base.attempted, base.failed, e2e)
  else begin
    let tp =
      run_pass w input ~seed ~sub:sub_runs
        ~seconds:(seconds /. float_of_int sub_runs)
        ~traced:true ~dir:(Filename.concat dir "traced")
    in
    print_pass "traced" tp;
    let codec, proto, wal = replay_inputs input tp ~dir in
    let layer = per_layer ~base tp codec proto wal in
    print_ledger w ~e2e ~traced:tp layer;
    (base.problems = [] && tp.problems = [], tp.attempted, tp.failed, layer)
  end

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := List.assoc_opt v workloads;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some traced ->
      let dir = Filename.concat "_perfbench_run" (string_of_int (Unix.getpid ())) in
      mkdir_p dir;
      let ok, attempted, failed, metrics =
        Fun.protect
          ~finally:(fun () ->
            rm_rf dir;
            (try Unix.rmdir "_perfbench_run" with Unix.Unix_error _ -> ()))
          (fun () ->
            Printf.printf "svsbench: workload %s, seed %d, %.0f s, trace %b\n%!" (workload_name w) seed
              seconds traced;
            match w with
            | Saturate ->
                run_workload w (int_input ~ann:(fun _ -> Annotation.Unrelated)) ~seed ~seconds
                  ~traced ~dir
            | Quake_paced ->
                let anns = quake_anns ~seed in
                let pull_rate = pull_headroom *. unobsoleted_share anns *. rate w in
                Printf.printf "node 2 pulls %.0f msgs/s\n" pull_rate;
                run_workload w
                  { (string_input ~seed ~bytes:92 ~ann:(cycled anns)) with pull_rate }
                  ~seed ~seconds ~traced ~dir
            | Wedged ->
                (* Past the first k = 8 messages every chain bitmap is
                   the same (distances 1..8). *)
                let anns = chain_anns 9 in
                let ann k = anns.(min k 8) in
                run_workload w (string_input ~seed ~bytes:1015 ~ann) ~seed ~seconds ~traced ~dir
            | Churn ->
                let anns = quake_anns ~seed in
                run_workload w (int_input ~ann:(cycled anns)) ~seed ~seconds ~traced ~dir)
      in
      print_endline (result_json ~correct:ok ~attempted ~failed metrics);
      if not ok then exit 1
  | _ -> usage ()
