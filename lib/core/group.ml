module Engine = Svs_sim.Engine
module Network = Svs_net.Network
module Latency = Svs_net.Latency
module Oracle = Svs_detector.Oracle
module Heartbeat = Svs_detector.Heartbeat
module Arbiter = Svs_consensus.Arbiter
module Ct = Svs_consensus.Chandra_toueg
module Metrics = Svs_telemetry.Metrics
module Trace = Svs_telemetry.Trace
open Types

type detector_mode =
  | Oracle
  | Heartbeats of Heartbeat.config

type consensus_mode =
  | Arbiter
  | Chandra_toueg

(* The member shell's laggard rule, measured per link: a member's
   data held back at a peer above [backlog_limit] messages. *)
type laggard = {
  backlog_limit : int;
  report_after : float;
  evict_after : float option;
}

type config = {
  semantic : bool;
  evict_uncovered : bool;
  buffer_capacity : int option;
  detector : detector_mode;
  consensus : consensus_mode;
  auto_view_change : bool;
  stability_period : float option;
  laggard : laggard option;
  park_timeout : float option;
  merge : bool;
  divergence : Member.divergence option;
  shed : int option;
      (* Semantic shedding of backlogged network queues (paused
         inboxes, held links) once they exceed this many data
         messages, under the prefix-safe suffix rule; None disables
         (the queues grow without bound, the pre-flow-control
         behaviour). *)
  tracer : Trace.t;
  metrics : Metrics.t option;
}

let default_config =
  {
    semantic = true;
    evict_uncovered = false;
    buffer_capacity = None;
    detector = Oracle;
    consensus = Arbiter;
    auto_view_change = true;
    stability_period = None;
    laggard = None;
    park_timeout = None;
    merge = true;
    divergence = None;
    shed = None;
    tracer = Trace.nop;
    metrics = None;
  }

type 'p packet =
  | Proto of 'p wire
  | Cons of { view_id : int; msg : 'p proposal Ct.msg }
  | Beat
  | Digest of { view_id : int; digest : int }

type 'p t = {
  me : int;
  cluster : 'p cluster;
  core : 'p Member.t;
  inbox : (int * 'p data) Queue.t;
  mutable hb : Heartbeat.t option;
  mutable installed_cbs : (View.t -> unit) list;
  mutable synced_cbs : (View.t -> string option -> unit) list;
}

and 'p cluster = {
  engine : Engine.t;
  net : 'p packet Network.t;
  config : config;
  check : Checker.t;
  oracle : Oracle.t option;
  mutable arbiter : 'p proposal Arbiter.t option;
  mutable member_list : 'p t list;
}

let engine c = c.engine

let members c = c.member_list

let member c p =
  match List.find_opt (fun m -> m.me = p) c.member_list with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Group.member: no member %d" p)

let checker c = c.check

let id m = m.me

let view m = Member.view m.core

let is_blocked m = Member.is_blocked m.core

let is_member m = Member.is_member m.core

let pending m = Member.pending m.core

let inbox m = Queue.length m.inbox

let inflight_from m ~src =
  Queue.fold (fun n (s, _) -> if s = src then n + 1 else n) 0 m.inbox

let purged m = Protocol.purged_count (Member.protocol m.core)

let purged_at m site = Protocol.purged_at (Member.protocol m.core) site

let tracer c = c.config.tracer

let metrics c = c.config.metrics

let stable_trimmed m = Protocol.stable_trimmed (Member.protocol m.core)

let pred_size m = List.length (Protocol.accepted_in_view (Member.protocol m.core))

let is_joining m = Member.is_joining m.core

let is_parked m = (not (Member.is_down m.core)) && Member.parked m.core

let parked_events c = List.fold_left (fun n m -> n + Member.parks m.core) 0 c.member_list

let divergence_events c =
  List.fold_left (fun n m -> n + Member.divergences m.core) 0 c.member_list

let set_state_digest m f = Member.set_state_digest m.core f

let on_installed m f = m.installed_cbs <- f :: m.installed_cbs

let on_synced m f = m.synced_cbs <- f :: m.synced_cbs

let set_state_transfer m f = Member.set_state_transfer m.core f

let suspects m p =
  match (m.cluster.oracle, m.hb) with
  | Some o, _ -> Svs_detector.Oracle.suspects o p
  | None, Some hb -> Heartbeat.suspects hb p
  | None, None -> false

let suspected_set m =
  match (m.cluster.oracle, m.hb) with
  | Some o, _ -> Svs_detector.Oracle.suspected_set o
  | None, Some hb -> Heartbeat.suspected_set hb
  | None, None -> []

(* Room left in the bounded delivery queue. *)
let has_room m =
  match m.cluster.config.buffer_capacity with
  | None -> true
  | Some cap -> Member.pending m.core < cap

(* Feed held-back data into the protocol while the delivery queue has
   room (the paper's backpressure: a full node "ceases to accept
   further messages from the network"). The member's drain calls this
   back after every input, so one message per call keeps the loop in
   tail position. *)
let pump m =
  if (not (Member.is_down m.core)) && (not (Queue.is_empty m.inbox)) && has_room m then begin
    let src, d = Queue.pop m.inbox in
    Member.receive m.core ~src (Wdata d)
  end

(* Out of the group (crashed, excluded or parked): the detector is per
   incarnation and held-back data dies with it. *)
let retire m =
  Option.iter Heartbeat.stop m.hb;
  m.hb <- None;
  Queue.clear m.inbox

let on_packet m ~src packet =
  if not (Member.is_down m.core) then
    match packet with
    | Beat -> ( match m.hb with Some hb -> Heartbeat.on_heartbeat hb ~src | None -> ())
    | Digest { view_id; digest } -> Member.note_digest m.core ~src ~view_id digest
    | Proto (Wdata d) ->
        (* Note: this held-back backlog is NOT purged by the protocol's
           purge indexes. Purging an {e arbitrary} queued message here
           could lose its cover before either is accepted (the cover
           may be dropped as stale at the next view installation
           without ever entering any member's PRED set), violating
           FIFO semantic reliability. The network-level shedding
           ([config.shed]) is sound precisely because it refuses that
           generality: it removes only a contiguous newest-end run
           whose every victim is covered by a retained (or co-shed)
           newer message on the same stream, so any prefix the member
           can observe still ends in a cover. Anywhere-in-queue purging
           remains safe only in the accepted sets — the delivery queue
           (Purge_index) and the agreed pred. *)
        Queue.add (src, d) m.inbox;
        pump m
    | Proto wire -> Member.receive m.core ~src wire
    | Cons { view_id; msg } -> Member.on_cons m.core ~src ~view_id msg

let multicast m ?ann payload =
  match Member.multicast m.core ?ann payload with
  | Error _ as e -> e
  | Ok d ->
      Checker.record_multicast m.cluster.check
        { Checker.id = d.id; ann = d.ann; view_id = d.view_id };
      Ok d

let deliver m =
  match Member.deliver m.core with
  | None -> None
  | Some (Data d) as r ->
      Checker.record_delivery m.cluster.check ~p:m.me
        { Checker.id = d.id; ann = d.ann; view_id = d.view_id };
      pump m;
      r
  | Some (View_change v) as r ->
      Checker.record_install m.cluster.check ~p:m.me v;
      pump m;
      r

let deliver_all m =
  let rec go acc =
    match deliver m with None -> List.rev acc | Some d -> go (d :: acc)
  in
  go []

let trigger_view_change m ?join ~leave () = Member.trigger_view_change m.core ?join ~leave ()

let request_join m ~contact = Member.request_join m.core ~contact

let bytes_sent c = Network.bytes_sent c.net

let shed_total c = Network.shed_count c.net

let backlog c p = Network.inbox_data_length c.net ~node:p

let partition c a b = Network.disconnect c.net a b

let heal c a b = Network.reconnect c.net a b

(* Cross-product of pairwise disconnects between distinct sets: a group
   split. Links inside each set stay up. *)
let partition_sets c sets =
  let rec cross = function
    | [] -> ()
    | s :: rest ->
        let others = List.concat rest in
        List.iter (fun a -> List.iter (fun b -> partition c a b) others) s;
        cross rest
  in
  cross sets

let heal_sets c sets =
  let rec cross = function
    | [] -> ()
    | s :: rest ->
        let others = List.concat rest in
        List.iter (fun a -> List.iter (fun b -> heal c a b) others) s;
        cross rest
  in
  cross sets

let pause_receive c p = Network.pause_receive c.net ~node:p

let resume_receive c p = Network.resume_receive c.net ~node:p

let receive_paused c p = Network.receive_paused c.net ~node:p

let set_latency c latency = Network.set_latency c.net latency

let latency c = Network.latency c.net

let crash c p =
  let m = member c p in
  Member.halt m.core;
  retire m;
  Network.crash c.net ~node:p;
  match c.oracle with Some o -> Svs_detector.Oracle.mark_crashed o p | None -> ()

(* A partition is invisible to the shared oracle detector (it has no
   vantage point), so set-based splits write the unreachable side off
   explicitly: suspicion only, network state untouched. Nodes that are
   not current members are skipped — a still-joining node from an
   earlier split is already cut off by the partition itself, and
   re-suspecting it would wedge its eventual readmission. Suspicion is
   cleared on the usual path: the parked member restarts as a joiner
   and [unsuspect_when_excluded] lifts the mark once no surviving view
   lists it. *)
let write_off c ps =
  match c.oracle with
  | None -> ()
  | Some o ->
      List.iter (fun p -> if is_member (member c p) then Oracle.mark_crashed o p) ps

(* With the perfect detector, a restarted node must stop being
   suspected — but only once every surviving member has moved past the
   view that still lists it, otherwise an in-flight exclusion change
   would wait forever for a PRED the new (joining, hence silent)
   incarnation will never send. *)
let unsuspect_when_excluded c p =
  match c.oracle with
  | None -> ()
  | Some o ->
      let still_listed () =
        List.exists
          (fun q -> q.me <> p && (not (Member.is_down q.core)) && View.mem p (view q))
          c.member_list
      in
      if not (still_listed ()) then Svs_detector.Oracle.mark_recovered o p
      else begin
        let done_ = ref false in
        List.iter
          (fun q ->
            if q.me <> p then
              on_installed q (fun _ ->
                  if (not !done_) && not (still_listed ()) then begin
                    done_ := true;
                    Svs_detector.Oracle.mark_recovered o p
                  end))
          c.member_list
      end

let note_suspect c ~node p =
  if Trace.enabled c.config.tracer then
    Trace.emit c.config.tracer (Trace.Suspect { node; suspect = p })

(* Heartbeat detection is per incarnation: a fresh detector at creation
   and at every restart. *)
let start_heartbeats c m hb_config =
  let hb =
    Heartbeat.create c.engine hb_config ~me:m.me
      ~peers:(List.map (fun q -> q.me) c.member_list)
      ~send_heartbeat:(fun ~dst -> Network.send c.net ~src:m.me ~dst Beat)
  in
  Heartbeat.on_suspect hb (fun p ->
      note_suspect c ~node:m.me p;
      Member.on_suspicion m.core);
  Heartbeat.on_rescind hb (fun _ -> Member.on_suspicion m.core);
  m.hb <- Some hb

(* Restart a crashed (or excluded) process as a new incarnation that
   must be readmitted through the JOIN/SYNC path. With [recover], the
   durable slice of the dead incarnation's state — last installed view
   id, delivery floors, next sequence number — seeds the new protocol,
   standing in for what {!Svs_rt.Wal} provides on the real stack;
   without it the process comes back amnesiac (which the safety oracle
   duly flags once it reuses a sequence number). *)
let restart c p ~recover =
  let m = member c p in
  if is_member m || is_joining m then
    invalid_arg (Printf.sprintf "Group.restart: %d is still active" p);
  let recovery = if recover then Some (Member.recovery m.core) else None in
  Member.restart m.core ?recovery ();
  Queue.clear m.inbox;
  Network.revive c.net ~node:p;
  match c.config.detector with
  | Oracle -> unsuspect_when_excluded c p
  | Heartbeats hb_config -> start_heartbeats c m hb_config

let packet_size pc packet =
  match packet with
  | Beat -> 4
  | Digest _ -> 12
  | Proto wire -> 8 + Wire_codec.wire_size pc wire
  | Cons { msg; _ } ->
      12 + Ct.msg_size ~value_size:(fun p -> Wire_codec.proposal_size pc p) msg

let create_cluster eng ~members:member_ids ?(latency = Latency.Zero) ?bandwidth
    ?payload_codec ?(manual_net = false) ?(config = default_config) () =
  if member_ids = [] then invalid_arg "Group.create_cluster: empty membership";
  let ids = List.sort_uniq compare member_ids in
  let n_nodes = List.fold_left Stdlib.max 0 ids + 1 in
  let sizer = Option.map (fun pc packet -> packet_size pc packet) payload_codec in
  let net = Network.create eng ~nodes:n_nodes ~latency ?bandwidth ?sizer ~manual:manual_net () in
  (* Telemetry: stamp trace events with virtual time and hook the
     substrate instruments into the registry. *)
  Trace.set_clock config.tracer (Engine.clock eng);
  (match config.metrics with
  | None -> ()
  | Some reg ->
      Engine.attach_metrics eng reg;
      Network.attach_metrics net reg);
  (* Semantic shedding of backlogged queues: only annotated DATA
     packets are candidates, covers must come from the same view, and
     the network applies the prefix-safe suffix rule per FIFO stream
     (see Network.shed_policy). Wdata frames travel sender → receiver
     directly, so the victim's sender is the shedding node. *)
  (match config.shed with
  | None -> ()
  | Some shed_limit ->
      Network.set_shed_policy net
        {
          Network.shed_limit;
          sheddable =
            (function
            | Proto (Wdata d) -> d.ann <> Types.Annotation.Unrelated
            | Proto _ | Cons _ | Beat | Digest _ -> false);
          obsoletes =
            (fun ~older ~newer ->
              match (older, newer) with
              | Proto (Wdata o), Proto (Wdata n) ->
                  o.view_id = n.view_id && obsoletes o n
              | _ -> false);
          on_shed =
            (fun ~dst packet ->
              match packet with
              | Proto (Wdata d) ->
                  if Trace.enabled config.tracer then
                    Trace.emit config.tracer
                      (Trace.Shed
                         {
                           node = d.id.Msg_id.sender;
                           peer = dst;
                           sender = d.id.Msg_id.sender;
                           sn = d.id.Msg_id.sn;
                         })
              | _ -> ());
        });
  let initial_view = View.initial ~members:ids in
  let oracle =
    match config.detector with
    | Oracle -> Some (Svs_detector.Oracle.create ~nodes:n_nodes)
    | Heartbeats _ -> None
  in
  let cluster =
    { engine = eng; net; config; check = Checker.create (); oracle; arbiter = None; member_list = [] }
  in
  (match config.consensus with
  | Chandra_toueg -> ()
  | Arbiter ->
      let deliver ~dst ~instance value =
        match List.find_opt (fun m -> m.me = dst) cluster.member_list with
        | Some m -> Member.decided m.core ~view_id:instance value
        | None -> ()
      in
      (* Quorum 1: the arbiter is a trusted decision service, and any
         single SVS proposal is already safe to adopt (its construction
         guarantees the pred set covers every proposed member's PRED),
         so deciding on the first proposal maximises liveness. *)
      cluster.arbiter <-
        Some (Svs_consensus.Arbiter.create eng ~members:ids ~quorum:1 ~deliver ()));
  let mk_member me =
    (* The member shell's host callbacks need the driver record, which
       holds the shell: tie the knot through a reference. *)
    let m_ref = ref None in
    let self () = match !m_ref with Some m -> m | None -> assert false in
    let inbox = Queue.create () in
    let host =
      {
        Member.send_wire = (fun ~dst wire -> Network.send net ~src:me ~dst (Proto wire));
        send_cons =
          (fun ~dst ~view_id msg -> Network.send net ~src:me ~dst (Cons { view_id; msg }));
        suspects = (fun p -> suspects (self ()) p);
        suspected =
          (fun () -> if config.auto_view_change then suspected_set (self ()) else []);
        propose =
          Option.map
            (fun a ~view_id proposal ->
              Svs_consensus.Arbiter.propose a ~instance:view_id ~from:me proposal)
            cluster.arbiter;
        backlog = (fun () -> Queue.length inbox);
        deliverable = (fun () -> pump (self ()));
        installed = (fun v -> List.iter (fun f -> f v) (self ()).installed_cbs);
        excluded = (fun _ ~rejoin:_ -> retire (self ()));
        synced =
          (fun v app ->
            (* The group just readmitted this incarnation, so every
               exclusion of the old one has long completed: any stale
               oracle suspicion (e.g. a written-off minority member
               whose deferred [unsuspect_when_excluded] check was raced
               by another member of the same parked set) must be lifted
               now, or the next suspicion event would spuriously
               exclude a node the group just voted back in. *)
            (match oracle with Some o -> Oracle.mark_recovered o me | None -> ());
            List.iter (fun f -> f v app) (self ()).synced_cbs);
        parked = (fun () -> retire (self ()));
        rejoin = (fun () -> restart cluster me ~recover:true);
        lag =
          (* Since when each peer has held back over the limit. *)
          (let over_since = Hashtbl.create 7 in
           fun p ->
             let n = inflight_from (member cluster p) ~src:me in
             match config.laggard with
             | Some { backlog_limit; _ } when n > backlog_limit ->
                 let now = Engine.now eng in
                 let since = Option.value (Hashtbl.find_opt over_since p) ~default:now in
                 Hashtbl.replace over_since p since;
                 (now -. since, n)
             | Some _ | None ->
                 Hashtbl.remove over_since p;
                 (0.0, 0));
        send_digest =
          (fun ~dst ~view_id digest -> Network.send net ~src:me ~dst (Digest { view_id; digest }));
      }
    in
    let core =
      Member.create eng ~me ~peers:ids ~clock:(Engine.clock eng) ~semantic:config.semantic
        ~evict_uncovered:config.evict_uncovered ~tracer:config.tracer ?metrics:config.metrics
        ?park_timeout:config.park_timeout
        ~merge:config.merge ?divergence:config.divergence
        ?laggard:
          (Option.map
             (fun { report_after; evict_after; _ } -> { Member.report_after; evict_after })
             config.laggard)
        ?stability_period:config.stability_period
        ~merge_spans:
          (match config.metrics with
          | None -> Metrics.Histogram.detached ()
          | Some reg ->
              Metrics.histogram reg ~labels:[ ("node", string_of_int me) ] "svs_merge_seconds")
        host
    in
    let m =
      { me; cluster; core; inbox; hb = None; installed_cbs = []; synced_cbs = [] }
    in
    m_ref := Some m;
    m
  in
  let ms = List.map mk_member ids in
  cluster.member_list <- ms;
  List.iter
    (fun m ->
      Checker.record_install cluster.check ~p:m.me initial_view;
      Network.set_handler net ~node:m.me (fun ~src packet -> on_packet m ~src packet);
      match config.detector with
      | Oracle -> (
          match oracle with
          | Some o ->
              Svs_detector.Oracle.on_suspect o (fun p ->
                  note_suspect cluster ~node:m.me p;
                  Member.on_suspicion m.core)
          | None -> assert false)
      | Heartbeats hb_config -> start_heartbeats cluster m hb_config)
    ms;
  cluster

(* --- Model-checker control surface (see MODELCHECK.md) ---

   The cluster's network and packet type are private to this module,
   so the explorer's hooks live here: explicit link delivery (the
   network must be created with [manual_net]), in-flight inspection,
   and the canonical per-node / per-link / global state fingerprints
   the checker deduplicates visited states with. *)

let is_down m = Member.is_down m.core

let mc_inflight c ~src ~dst = Network.inflight c.net ~src ~dst

let mc_partitioned c ~src ~dst = Network.partitioned c.net ~src ~dst

let mc_deliver c ~src ~dst = Network.manual_deliver c.net ~src ~dst

let mc_head_is_data c ~src ~dst =
  match Network.peek_inflight c.net ~src ~dst with
  | Some (Proto (Wdata _)) -> true
  | Some (Proto _ | Cons _ | Beat | Digest _) | None -> false

let packet_digest ~payload = function
  | Proto wire -> "P" ^ Protocol.mc_wire_digest ~payload wire
  | Cons { view_id; _ } -> Printf.sprintf "C%d" view_id
  | Beat -> "B"
  | Digest { view_id; digest } -> Printf.sprintf "D%d:%d" view_id digest

let proposal_digest ~payload (p : 'p proposal) =
  let b = Buffer.create 64 in
  Buffer.add_string b (string_of_int p.next_view.View.id);
  List.iter (fun q -> Buffer.add_string b (":" ^ string_of_int q)) p.next_view.View.members;
  List.iter
    (fun d -> Buffer.add_string b (Protocol.mc_wire_digest ~payload (Wdata d)))
    p.pred;
  Digest.string (Buffer.contents b)

type mc_state = {
  mc_nodes : (int * string) list;
  mc_links : ((int * int) * string) list;
  mc_global : string;
}

let mc_node_fingerprint c ~payload p =
  let m = member c p in
  let b = Buffer.create 64 in
  Buffer.add_char b (if Member.is_down m.core then 'x' else 'o');
  Buffer.add_char b (if Member.parked m.core then 'p' else '-');
  Queue.iter
    (fun (src, d) ->
      Buffer.add_string b (string_of_int src);
      Buffer.add_string b (Protocol.mc_wire_digest ~payload (Wdata d)))
    m.inbox;
  Buffer.add_string b (Protocol.mc_fingerprint ~payload (Member.protocol m.core));
  Digest.string (Buffer.contents b)

let mc_link_fingerprint c ~payload ~src ~dst =
  let b = Buffer.create 64 in
  Buffer.add_char b (if Network.partitioned c.net ~src ~dst then 'c' else '-');
  Network.iter_inflight c.net ~src ~dst (fun pkt ->
      Buffer.add_string b (packet_digest ~payload pkt));
  Digest.string (Buffer.contents b)

let mc_global_fingerprint c ~payload =
  let b = Buffer.create 64 in
  (match c.oracle with
  | None -> ()
  | Some o ->
      List.iter
        (fun p -> Buffer.add_string b (string_of_int p ^ ","))
        (List.sort compare (Svs_detector.Oracle.suspected_set o)));
  Buffer.add_char b '/';
  (match c.arbiter with
  | None -> ()
  | Some a -> Buffer.add_string b (Arbiter.mc_fingerprint (proposal_digest ~payload) a));
  Buffer.add_char b '/';
  Buffer.add_string b (string_of_int (Engine.pending c.engine));
  Digest.string (Buffer.contents b)

let mc_state c ~payload =
  let nodes = List.map (fun m -> (m.me, mc_node_fingerprint c ~payload m.me)) c.member_list in
  let n = Network.size c.net in
  let links = ref [] in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      if Network.inflight c.net ~src ~dst > 0 || Network.partitioned c.net ~src ~dst then
        links := ((src, dst), mc_link_fingerprint c ~payload ~src ~dst) :: !links
    done
  done;
  { mc_nodes = nodes; mc_links = !links; mc_global = mc_global_fingerprint c ~payload }
