module Msg_id = Svs_obs.Msg_id
module Annotation = Svs_obs.Annotation
module Purge_index = Svs_obs.Purge_index
module Metrics = Svs_telemetry.Metrics
module Trace = Svs_telemetry.Trace
open Types

let log_src = Logs.Src.create "svs.protocol" ~doc:"SVS protocol (Figure 1)"

module Log = (val Logs.src_log log_src : Logs.LOG)

type 'p entry = Edata of 'p data | Eview of View.t

(* Per-view-change bookkeeping (Figure 1's leave / global-pred /
   pred-received variables, instantiated for the current view only:
   older instances can never be consulted again because decisions for
   past views are discarded). *)
type 'p vc_state = {
  mutable leave : int list;
  mutable join : int list;
  mutable global_pred : 'p data Msg_id.Map.t;
  mutable pred_received : int list;
  mutable pred_sent : bool;
  mutable proposed : bool;
}

(* A process is a [Member] of its current view, [Joining] (waiting for
   a sponsor's SYNC after requesting admission), [Parked] (cut off from
   the primary component: it keeps its floors and durable state but
   neither multicasts, delivers, nor installs until the embedding
   rejoins it through JOIN/SYNC), or [Dead] (excluded, or created
   outside the initial view). *)
type status = Member | Joining | Parked | Dead

type recovery = { view_id : int; floors : (int * int) list; next_sn : int }

type 'p t = {
  me : int;
  semantic : bool;
  suspects : int -> bool;
  mutable cv : View.t;
  mutable blocked : bool;
  mutable status : status;
  mutable state_transfer : unit -> string option;
  mutable next_sn : int;
  (* Recovery could not prove the durable sequence lease intact (a
     salvaged WAL with damaged regions): on the next SYNC, bump
     [next_sn] above the group's floor for us as a second line of
     defence against reusing a number an earlier incarnation sent. *)
  mutable lease_uncertain : bool;
  to_deliver : 'p entry Dq.t;
  (* Purge indexes over the queued Edata entries (semantic mode only):
     inserting a message touches exactly the entries it can obsolete
     instead of sweeping the queue. *)
  pidx : 'p entry Dq.handle Purge_index.t;
  delivered_this_view : 'p Retained.t; (* until stable or covered *)
  (* Inverted self-check only: every delivery also evicts the whole
     retained store, covered or not. *)
  evict_uncovered : bool;
  floors : (int, int) Hashtbl.t; (* sender -> highest accepted sn *)
  mutable vc : 'p vc_state option;
  stash : (int * 'p wire) Queue.t; (* future-view messages *)
  mutable outputs : 'p output list; (* reversed *)
  (* Stability tracking: the latest gossiped receive floors of every
     peer; messages at or below every member's floor are stable and can
     be dropped from the PRED bookkeeping. *)
  peer_floors : (int, (int, int) Hashtbl.t) Hashtbl.t;
  stable_cache : (int, int) Hashtbl.t; (* sender -> stable floor at the last trim *)
  mutable trimmed : int;
  (* [floors_version] counts rises of [floors]; [gossiped_version] is
     its value when STABLE last went out, so a host can send floors
     the moment they rise. [trim_due]: a message was retained since
     the last trim, and peers' floors may already cover it.
     [stable_rounds] counts STABLE broadcasts, for telemetry. *)
  mutable floors_version : int;
  mutable gossiped_version : int;
  mutable trim_due : bool;
  mutable stable_rounds : int;
  (* Telemetry. The purge counters split the old single total by the
     site of the purge (Figure 1's three shaded steps). [queued_data]
     mirrors the number of Edata entries in [to_deliver] so occupancy
     reads are O(1). *)
  tracer : Trace.t;
  clock : unit -> float;
  purged_multicast : Metrics.Counter.t;
  purged_receive : Metrics.Counter.t;
  purged_install : Metrics.Counter.t;
  evicted : Metrics.Counter.t;
  occupancy : Metrics.Gauge.t;
  blocked_spans : Metrics.Histogram.t;
  parked_total : Metrics.Counter.t;
  mutable blocked_since : float;
  mutable queued_data : int;
}

let create ~me ~initial_view ?(semantic = true) ?(evict_uncovered = false)
    ?(tracer = Trace.nop) ?metrics ?(clock = fun () -> 0.0) ~suspects () =
  let node_label = [ ("node", string_of_int me) ] in
  let counter site =
    match metrics with
    | None -> Metrics.Counter.detached ()
    | Some reg -> Metrics.counter reg ~labels:(("site", site) :: node_label) "svs_purged_total"
  in
  {
    me;
    semantic;
    suspects;
    cv = initial_view;
    blocked = false;
    status = (if View.mem me initial_view then Member else Dead);
    state_transfer = (fun () -> None);
    next_sn = 0;
    lease_uncertain = false;
    to_deliver = Dq.create ();
    pidx = Purge_index.create ();
    delivered_this_view = Retained.create ();
    evict_uncovered;
    floors = Hashtbl.create 16;
    vc = None;
    stash = Queue.create ();
    outputs = [];
    peer_floors = Hashtbl.create 16;
    stable_cache = Hashtbl.create 8;
    trimmed = 0;
    floors_version = 0;
    gossiped_version = 0;
    trim_due = false;
    stable_rounds = 0;
    tracer;
    clock;
    purged_multicast = counter "multicast";
    purged_receive = counter "receive";
    purged_install = counter "install";
    evicted =
      (match metrics with
      | None -> Metrics.Counter.detached ()
      | Some reg -> Metrics.counter reg ~labels:node_label "svs_evicted_total");
    occupancy =
      (match metrics with
      | None -> Metrics.Gauge.detached ()
      | Some reg -> Metrics.gauge reg ~labels:node_label "svs_buffer_occupancy");
    blocked_spans =
      (match metrics with
      | None -> Metrics.Histogram.detached ()
      | Some reg -> Metrics.histogram reg ~labels:node_label "svs_blocked_seconds");
    parked_total =
      (match metrics with
      | None -> Metrics.Counter.detached ()
      | Some reg -> Metrics.counter reg ~labels:node_label "svs_parked_total");
    blocked_since = 0.0;
    queued_data = 0;
  }

(* A joiner has no view yet: its placeholder current view holds only
   itself, with the last view it installed before crashing (so the
   stale-message guard still applies across restart) or [-1] for a
   fresh process. [recovery] restores the durable part of the state —
   delivery floors (dedup + FIFO across restart) and the next send
   sequence number (so no Msg_id is ever reused). *)
let create_joiner ~me ?recovery ?semantic ?evict_uncovered ?tracer ?metrics ?clock ~suspects
    () =
  let view_id = match recovery with Some r -> r.view_id | None -> -1 in
  let t =
    create ~me
      ~initial_view:(View.make ~id:view_id ~members:[ me ])
      ?semantic ?evict_uncovered ?tracer ?metrics ?clock ~suspects ()
  in
  t.status <- Joining;
  (match recovery with
  | None -> ()
  | Some r ->
      List.iter (fun (sender, sn) -> Hashtbl.replace t.floors sender sn) r.floors;
      t.next_sn <- r.next_sn);
  t

let me t = t.me

let current_view t = t.cv

let blocked t = t.blocked

let alive t = t.status = Member

let joining t = t.status = Joining

let parked t = t.status = Parked

(* Quorum loss: a view change could not assemble a majority of the
   previous view. The process freezes — no multicasts, no fresh
   deliveries, no installs — but keeps its floors, queue, and next_sn
   intact so the embedding can rejoin it through JOIN/SYNC as a new
   incarnation (the floors make re-entry duplicate-free). *)
let park t =
  if t.status = Member then begin
    if t.blocked then
      Metrics.Histogram.observe t.blocked_spans (t.clock () -. t.blocked_since);
    t.status <- Parked;
    t.vc <- None;
    Metrics.Counter.incr t.parked_total;
    Log.info (fun m -> m "p%d: parked (lost the primary component of %a)" t.me View.pp t.cv);
    if Trace.enabled t.tracer then
      Trace.emit t.tracer (Parked { node = t.me; view_id = t.cv.View.id })
  end

let set_state_transfer t f = t.state_transfer <- f

let mark_lease_uncertain t = t.lease_uncertain <- true

let floors t = Hashtbl.fold (fun sender sn acc -> (sender, sn) :: acc) t.floors []

let next_sn t = t.next_sn

let purge_counter t = function
  | Trace.At_multicast -> t.purged_multicast
  | Trace.At_receive -> t.purged_receive
  | Trace.At_install -> t.purged_install

let purged_at t site = Metrics.Counter.value (purge_counter t site)

let purged_count t =
  purged_at t Trace.At_multicast + purged_at t Trace.At_receive + purged_at t Trace.At_install

let blocked_spans t = t.blocked_spans

let to_deliver_length t = t.queued_data

let set_queued t n =
  t.queued_data <- n;
  Metrics.Gauge.set t.occupancy (float_of_int n)

(* The queue moves by one on every accept and delivery. Adding the
   literal [1.0] or [-1.0] to the gauge passes a preallocated float,
   where {!set_queued} boxes a fresh one; the gauge holds the same
   integer either way. *)
let queued_one t =
  t.queued_data <- t.queued_data + 1;
  Metrics.Gauge.add t.occupancy 1.0

let unqueued_one t =
  t.queued_data <- t.queued_data - 1;
  Metrics.Gauge.add t.occupancy (-1.0)

(* Account one message dropped as obsolete at [site]. *)
let note_purged t ~site ~view_id (id : Msg_id.t) =
  Metrics.Counter.incr (purge_counter t site);
  if Trace.enabled t.tracer then
    Trace.emit t.tracer
      (Purge { node = t.me; view_id; at_step = site; sender = id.Msg_id.sender; sn = id.Msg_id.sn })

let emit t o = t.outputs <- o :: t.outputs

let take_outputs t =
  let outs = List.rev t.outputs in
  t.outputs <- [];
  outs

let floor_of t sender = match Hashtbl.find t.floors sender with sn -> sn | exception Not_found -> -1

let raise_floor t ~sender ~sn =
  if sn > floor_of t sender then begin
    Hashtbl.replace t.floors sender sn;
    t.floors_version <- t.floors_version + 1
  end

(* Purge the planned victims still queued; returns how many were. A
   top-level loop, so an accept with nothing to purge allocates no
   counter and no closure. *)
let rec purge_victims t ~site ~view_id removed = function
  | [] -> removed
  | (v : _ Purge_index.victim) :: rest ->
      let removed =
        if Dq.remove t.to_deliver v.Purge_index.victim_handle then begin
          Purge_index.remove t.pidx ~view:view_id ~id:v.Purge_index.victim_id
            ~ann:v.Purge_index.victim_ann;
          note_purged t ~site ~view_id v.Purge_index.victim_id;
          removed + 1
        end
        else removed
      in
      purge_victims t ~site ~view_id removed rest

(* Insert an accepted data message (t2 self-copy, t3 reception, or t7
   injection) and purge incrementally: with the queue already purged,
   only pairs involving [d] can newly match, and the index enumerates
   them directly — O(|predecessors|) probes instead of two queue
   sweeps, run once, before the push. Both directions are checked
   because enumeration annotations can relate messages across senders
   in either queue order. A message covered on arrival is accounted as
   accepted (for FIFO floors) but never queued; at reception its
   victims stay queued, as the receive-side cover test always left
   them. *)
let accept t ~site (d : 'p data) =
  raise_floor t ~sender:d.id.Msg_id.sender ~sn:d.id.Msg_id.sn;
  if not t.semantic then begin
    ignore (Dq.push_back_h t.to_deliver (Edata d) : _ Dq.handle);
    queued_one t
  end
  else begin
    let view_id = d.view_id in
    let victims, drop = Purge_index.plan t.pidx ~view:view_id ~id:d.id ~ann:d.ann in
    let removed =
      match site with
      | Trace.At_receive when drop -> 0
      | Trace.At_receive | Trace.At_multicast | Trace.At_install ->
          purge_victims t ~site ~view_id 0 victims
    in
    if drop then note_purged t ~site ~view_id d.id
    else begin
      let h = Dq.push_back_h t.to_deliver (Edata d) in
      Purge_index.add t.pidx ~view:view_id ~id:d.id ~ann:d.ann h ~seq:(Dq.handle_seq h);
      queued_one t
    end;
    if removed > 0 then set_queued t (t.queued_data - removed)
  end

let peer_floor t p sender =
  match Hashtbl.find t.peer_floors p with
  | tbl -> ( match Hashtbl.find tbl sender with f -> f | exception Not_found -> -1)
  | exception Not_found -> -1

(* The least floor for [sender] over [members]: below it, every member
   has [sender]'s messages. *)
let rec stable_floor t sender acc = function
  | [] -> acc
  | p :: rest ->
      let f = if p = t.me then floor_of t sender else peer_floor t p sender in
      stable_floor t sender (Stdlib.min acc f) rest

(* Bring [stable_cache] up to date: every sender's stable floor, as
   of now. Returns whether some floor rose since the last refresh. *)
let refresh_stable_floors t =
  Hashtbl.fold
    (fun sender _ rose ->
      let f = stable_floor t sender max_int t.cv.View.members in
      match Hashtbl.find t.stable_cache sender with
      | old when old = f -> rose
      | old ->
          Hashtbl.replace t.stable_cache sender f;
          rose || f > old
      | exception Not_found ->
          Hashtbl.replace t.stable_cache sender f;
          true)
    t.floors false

(* [trim_stable]'s predicate, top-level so a trim allocates no
   closure per message. *)
let unstable t (d : 'p data) =
  let sender = d.id.Msg_id.sender and sn = d.id.Msg_id.sn in
  let keep =
    match Hashtbl.find t.stable_cache sender with f -> sn > f | exception Not_found -> true
  in
  if (not keep) && Trace.enabled t.tracer then
    Trace.emit t.tracer (StableMsg { node = t.me; sender; sn });
  keep

(* A scan leaves every retained message above its sender's stable
   floor, so the next one can drop something only once a stable floor
   rose or a message was delivered since ([trim_due]). Skipping the
   others matters when one member pins stability: its peers' STABLEs
   keep arriving every tick, and each scan is O(store). A trim
   allocates nothing per message. *)
let trim_stable t =
  if refresh_stable_floors t || t.trim_due then begin
    t.trim_due <- false;
    t.trimmed <- t.trimmed + Retained.filter_in_place unstable t t.delivered_this_view
  end

let stable_trimmed t = t.trimmed

let trim_delivered t = if t.trim_due && t.status = Member && not t.blocked then trim_stable t

let evicted t = Metrics.Counter.value t.evicted

let retained_peak t = Retained.peak t.delivered_this_view

let local_pred t =
  let from_queue =
    List.filter_map
      (function Edata d when d.view_id = t.cv.View.id -> Some d | Edata _ | Eview _ -> None)
      (Dq.to_list t.to_deliver)
  in
  Retained.fold_right List.cons t.delivered_this_view from_queue

let accepted_in_view = local_pred

(* A loop rather than [List.iter] over a closure: it runs once per
   multicast. *)
let rec send_each t wire = function
  | [] -> ()
  | dst :: rest ->
      if dst <> t.me then emit t (Send { dst; wire });
      send_each t wire rest

let send_to_others t wire = send_each t wire t.cv.View.members

(* t7: once every unsuspected member's PRED arrived and they form a
   majority, propose ((pred-received \ leave) U join, global-pred).
   Members in the leave set are not awaited even when not locally
   suspected: the initiator is excluding them (crash suspicion or the
   slow-member escalation), and an alive-but-unresponsive laggard
   would otherwise stall the change at every member whose own link to
   it is healthy — its detector keeps seeing heartbeats, so it never
   suspects, never collects the laggard's PRED, and never proposes. *)
let try_propose t =
  match t.vc with
  | None -> ()
  | Some vc ->
      let have p = List.mem p vc.pred_received in
      let ready =
        vc.pred_sent && (not vc.proposed)
        && List.for_all
             (fun p -> t.suspects p || List.mem p vc.leave || have p)
             t.cv.View.members
        && List.length vc.pred_received >= View.majority t.cv
      in
      if ready then begin
        vc.proposed <- true;
        Log.debug (fun m ->
            m "p%d: t7 proposing view %d with %d members, %d pred msgs" t.me
              (t.cv.View.id + 1)
              (List.length vc.pred_received)
              (Msg_id.Map.cardinal vc.global_pred));
        let members = List.filter (fun p -> not (List.mem p vc.leave)) vc.pred_received in
        (* Joiners are admitted only if they are not current members:
           a member can never be excluded and readmitted in the same
           transition, so a rejoining process always shows a view-id
           gap in its install history (the checker keys on this). *)
        let joins =
          List.filter
            (fun p -> (not (View.mem p t.cv)) && not (List.mem p members))
            vc.join
        in
        let next_view = View.make ~id:(t.cv.View.id + 1) ~members:(members @ joins) in
        let pred =
          List.map snd (Msg_id.Map.bindings vc.global_pred)
          |> List.sort (fun a b -> Msg_id.compare a.id b.id)
        in
        emit t (Propose { view_id = t.cv.View.id; proposal = { next_view; pred } })
      end

let notify_suspicion_change t = if t.status = Member then try_propose t

let vc_state t =
  match t.vc with
  | Some vc -> vc
  | None ->
      let vc =
        {
          leave = [];
          join = [];
          global_pred = Msg_id.Map.empty;
          pred_received = [];
          pred_sent = false;
          proposed = false;
        }
      in
      t.vc <- Some vc;
      vc

let multicast t ?(ann = Annotation.Unrelated) payload =
  if t.status <> Member || not (View.mem t.me t.cv) then Error `Not_member
  else if t.blocked then Error `Blocked
  else begin
    let id = Msg_id.make ~sender:t.me ~sn:t.next_sn in
    t.next_sn <- t.next_sn + 1;
    let d = { id; view_id = t.cv.View.id; payload; ann } in
    if Trace.enabled t.tracer then
      Trace.emit t.tracer (Multicast { node = t.me; view_id = d.view_id; sn = id.Msg_id.sn });
    send_to_others t (Wdata d);
    accept t ~site:Trace.At_multicast d;
    Ok d
  end

(* t5: first INIT for the current view. *)
let handle_init t ~src ~leave ~join =
  if not t.blocked then begin
    Log.debug (fun m ->
        m "p%d: view change for %a started by %d (leave: %d, join: %d)" t.me View.pp t.cv src
          (List.length leave) (List.length join));
    if src <> t.me then send_to_others t (Winit { view_id = t.cv.View.id; leave; join });
    t.blocked <- true;
    t.blocked_since <- t.clock ();
    if Trace.enabled t.tracer then
      Trace.emit t.tracer (Block { node = t.me; view_id = t.cv.View.id });
    let vc = vc_state t in
    vc.leave <- List.filter (fun p -> View.mem p t.cv) leave;
    vc.join <- List.sort_uniq compare (List.filter (fun p -> not (View.mem p t.cv)) join);
    let pred = local_pred t in
    send_to_others t (Wpred { view_id = t.cv.View.id; msgs = pred });
    (* Self-delivery of our own PRED (the paper sends it to all,
       including self). *)
    vc.global_pred <-
      List.fold_left (fun acc d -> Msg_id.Map.add d.id d acc) vc.global_pred pred;
    if not (List.mem t.me vc.pred_received) then
      vc.pred_received <- t.me :: vc.pred_received;
    vc.pred_sent <- true;
    try_propose t
  end

let rec note_peer_floors tbl = function
  | [] -> ()
  | (sender, sn) :: rest ->
      (match Hashtbl.find tbl sender with
      | old when old >= sn -> ()
      | _ -> Hashtbl.replace tbl sender sn
      | exception Not_found -> Hashtbl.replace tbl sender sn);
      note_peer_floors tbl rest

let handle_stable t ~src ~floors =
  if src <> t.me then begin
    let tbl =
      match Hashtbl.find t.peer_floors src with
      | tbl -> tbl
      | exception Not_found ->
          let tbl = Hashtbl.create 8 in
          Hashtbl.replace t.peer_floors src tbl;
          tbl
    in
    note_peer_floors tbl floors;
    trim_stable t
  end

let gossip_stability t =
  if t.status = Member && not t.blocked then begin
    t.gossiped_version <- t.floors_version;
    let floors = Hashtbl.fold (fun sender sn acc -> (sender, sn) :: acc) t.floors [] in
    if floors <> [] then begin
      t.stable_rounds <- t.stable_rounds + 1;
      send_to_others t (Wstable { floors })
    end
  end

let floors_risen t = t.floors_version <> t.gossiped_version

let stable_rounds t = t.stable_rounds

(* t6. *)
let handle_pred t ~src ~msgs =
  let vc = vc_state t in
  vc.global_pred <-
    List.fold_left (fun acc d -> Msg_id.Map.add d.id d acc) vc.global_pred msgs;
  if not (List.mem src vc.pred_received) then vc.pred_received <- src :: vc.pred_received;
  try_propose t

(* t3. *)
let handle_data t (d : 'p data) =
  (* At or below the floor, [d] is a duplicate: accepted once already. *)
  if (not t.blocked) && d.id.Msg_id.sn > floor_of t d.id.Msg_id.sender then
    accept t ~site:Trace.At_receive d

let trigger_view_change t ?(join = []) ~leave () =
  if t.status = Member && not t.blocked then begin
    let join = List.filter (fun p -> not (View.mem p t.cv)) join in
    send_to_others t (Winit { view_id = t.cv.View.id; leave; join });
    handle_init t ~src:t.me ~leave ~join
  end

(* A JOIN request reaches a member: start a view change admitting the
   joiner. Dropped while blocked or if the joiner is (still) a current
   member — the joiner keeps retrying, and a crashed incarnation that
   is still in the view gets excluded by suspicion first, so the
   readmitting transition is never the excluding one. *)
let handle_join t ~joiner =
  if t.status = Member && (not t.blocked) && not (View.mem joiner t.cv) then
    trigger_view_change t ~join:[ joiner ] ~leave:[] ()

let join_request t ~contact =
  if t.status = Joining then begin
    emit t (Send { dst = contact; wire = Wjoin { joiner = t.me } });
    if Trace.enabled t.tracer then Trace.emit t.tracer (Join { node = t.me; contact })
  end

let wire_view_id = function
  | Wdata d -> d.view_id
  | Winit { view_id; _ } | Wpred { view_id; _ } -> view_id
  | Wstable _ | Wjoin _ | Wsync _ -> assert false

let rec receive t ~src wire =
  match t.status with
  | Dead | Parked -> ()
  | Joining -> (
      match wire with
      | Wsync { view; floors; app } -> handle_sync t ~src ~view ~floors ~app
      | Wdata _ | Winit _ | Wpred _ ->
          (* INIT/PRED/DATA of the admitting view can arrive from other
             members before the sponsor's SYNC: stash and replay them
             once synced. Anything older than the last view installed
             before the crash is stale. *)
          if wire_view_id wire > t.cv.View.id then Queue.add (src, wire) t.stash
      | Wstable _ | Wjoin _ -> ())
  | Member -> (
      match wire with
      | Wstable { floors } -> handle_stable t ~src ~floors
      | Wjoin { joiner } -> handle_join t ~joiner
      | Wsync _ -> () (* only meaningful while joining *)
      | Wdata _ | Winit _ | Wpred _ ->
          let view_id = wire_view_id wire in
          if view_id < t.cv.View.id then () (* stale: superseded by the agreed pred set *)
          else if view_id > t.cv.View.id then Queue.add (src, wire) t.stash
          else (
            match wire with
            | Wdata d -> handle_data t d
            | Winit { leave; join; _ } -> handle_init t ~src ~leave ~join
            | Wpred { msgs; _ } -> handle_pred t ~src ~msgs
            | Wstable _ | Wjoin _ | Wsync _ -> assert false))

(* The sponsor's SYNC: adopt the new view and the sponsor's delivery
   floors (sequence numbers are never reused, so a floor can only
   suppress pre-view duplicates, never a message of the new view), and
   surface the transferred application state. *)
and handle_sync t ~src ~view ~floors ~app =
  if t.status = Joining && View.mem t.me view && view.View.id > t.cv.View.id then begin
    Log.info (fun m -> m "p%d: synced into %a by %d" t.me View.pp view src);
    List.iter (fun (sender, sn) -> raise_floor t ~sender ~sn) floors;
    (* A joiner recovering from a damaged log may carry a rolled-back
       sequence counter; the group's floor for us bounds every number
       an earlier incarnation put on the wire that the group has fully
       delivered, so starting above it is a second line of defence for
       "never reuse a sequence number" when the durable lease could not
       be proven intact. Only applied when the embedding flagged the
       lease as uncertain — an unconditional bump would silently mask
       genuine amnesia (a node restarting without its log), which must
       stay detectable. *)
    if t.lease_uncertain then begin
      if floor_of t t.me + 1 > t.next_sn then t.next_sn <- floor_of t t.me + 1;
      t.lease_uncertain <- false
    end;
    Dq.push_back t.to_deliver (Eview view);
    t.cv <- view;
    t.status <- Member;
    t.blocked <- false;
    t.vc <- None;
    Retained.clear t.delivered_this_view;
    if Trace.enabled t.tracer then begin
      Trace.emit t.tracer
        (StateTransfer
           {
             node = t.me;
             peer = src;
             bytes = (match app with None -> 0 | Some s -> String.length s);
           });
      Trace.emit t.tracer
        (ViewInstall { node = t.me; view_id = view.View.id; members = view.View.members })
    end;
    emit t (Installed view);
    emit t (Synced { view; app });
    replay_stash t
  end

and replay_stash t =
  let pending = Queue.create () in
  Queue.transfer t.stash pending;
  Queue.iter (fun (src, wire) -> receive t ~src wire) pending

and decided t ~view_id (p : 'p proposal) =
  if t.status = Member && view_id = t.cv.View.id then begin
    if Trace.enabled t.tracer then
      Trace.emit t.tracer (ConsensusDecide { node = t.me; view_id });
    if View.mem t.me p.next_view then begin
      (* Inject agreed predecessors this process never accepted. The
         floor check both deduplicates and preserves per-sender FIFO:
         anything at or below the floor was accepted before (then
         delivered or purged under a cover). *)
      List.iter
        (fun (d : 'p data) ->
          if d.view_id = t.cv.View.id && d.id.Msg_id.sn > floor_of t d.id.Msg_id.sender
          then accept t ~site:Trace.At_install d)
        p.pred;
      Log.info (fun m ->
          m "p%d: installing %a (injected pred, %d purged so far)" t.me View.pp p.next_view
            (purged_count t));
      (* Sponsor election for newcomers: the least-id member common to
         both views syncs each joiner. Computed before the install so
         the floors snapshot predates any message of the new view
         (stashed new-view traffic replays only below). *)
      let newcomers =
        List.filter (fun q -> not (View.mem q t.cv)) p.next_view.View.members
      in
      let is_sponsor =
        newcomers <> []
        && (match List.find_opt (fun q -> View.mem q t.cv) p.next_view.View.members with
           | Some q -> q = t.me
           | None -> false)
      in
      Dq.push_back t.to_deliver (Eview p.next_view);
      t.cv <- p.next_view;
      if t.blocked then begin
        Metrics.Histogram.observe t.blocked_spans (t.clock () -. t.blocked_since);
        if Trace.enabled t.tracer then
          Trace.emit t.tracer (Unblock { node = t.me; view_id = p.next_view.View.id })
      end;
      t.blocked <- false;
      t.vc <- None;
      Retained.clear t.delivered_this_view;
      if Trace.enabled t.tracer then
        Trace.emit t.tracer
          (ViewInstall
             {
               node = t.me;
               view_id = p.next_view.View.id;
               members = p.next_view.View.members;
             });
      emit t (Installed p.next_view);
      if is_sponsor then begin
        let floors = Hashtbl.fold (fun sender sn acc -> (sender, sn) :: acc) t.floors [] in
        let app = t.state_transfer () in
        let bytes = match app with None -> 0 | Some s -> String.length s in
        List.iter
          (fun joiner ->
            Log.info (fun m -> m "p%d: syncing joiner %d into %a" t.me joiner View.pp t.cv);
            emit t (Send { dst = joiner; wire = Wsync { view = p.next_view; floors; app } });
            if Trace.enabled t.tracer then
              Trace.emit t.tracer (StateTransfer { node = t.me; peer = joiner; bytes }))
          newcomers
      end;
      replay_stash t
    end
    else begin
      Log.info (fun m -> m "p%d: excluded from %a" t.me View.pp p.next_view);
      t.status <- Dead;
      t.vc <- None;
      emit t (Excluded p.next_view)
    end
  end

(* One retained message left the PRED bookkeeping because a later
   delivery covers it. *)
let note_evicted t (v : 'p data) =
  Metrics.Counter.incr t.evicted;
  if Trace.enabled t.tracer then
    Trace.emit t.tracer
      (Evict { node = t.me; view_id = v.view_id; sender = v.id.Msg_id.sender; sn = v.id.Msg_id.sn })

let drop_all () _ = false

let deliver t =
  if t.status = Parked then None
  else
  match Dq.pop_front t.to_deliver with
  | None -> None
  | Some (Eview v) -> Some (View_change v)
  | Some (Edata d) ->
      unqueued_one t;
      if t.semantic then Purge_index.remove t.pidx ~view:d.view_id ~id:d.id ~ann:d.ann;
      if d.view_id = t.cv.View.id then begin
        if t.evict_uncovered then
          ignore (Retained.filter_in_place drop_all () t.delivered_this_view : int);
        if t.semantic then Retained.push t.delivered_this_view d note_evicted t
        else Retained.add t.delivered_this_view d;
        t.trim_due <- true
      end;
      if Trace.enabled t.tracer then
        Trace.emit t.tracer
          (Deliver
             {
               node = t.me;
               view_id = d.view_id;
               sender = d.id.Msg_id.sender;
               sn = d.id.Msg_id.sn;
             });
      Some (Data d)

(* --- Model-checker support: canonical state digest (see MODELCHECK.md) ---

   A fingerprint of the behaviourally relevant protocol state: two
   processes with equal fingerprints react identically to every future
   input. Mutable containers are projected onto canonical pure shapes
   first — hashtables become sorted association lists, the deque
   becomes a front-to-back list — because their in-memory layout
   depends on insertion history, which differs between interleavings
   that reach the same logical state. Telemetry (counters, tracer,
   blocked spans, [trimmed]) is deliberately excluded: it never feeds
   back into a transition. *)

let buf_int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ';'

let buf_bool b v = Buffer.add_char b (if v then '1' else '0')

let buf_str b s =
  buf_int b (String.length s);
  Buffer.add_string b s

let buf_id b (id : Msg_id.t) =
  buf_int b id.sender;
  buf_int b id.sn

let buf_ann b = function
  | Annotation.Unrelated -> Buffer.add_char b 'U'
  | Annotation.Tag g ->
      Buffer.add_char b 'T';
      buf_int b g
  | Annotation.Enum ids ->
      Buffer.add_char b 'E';
      List.iter (buf_id b) ids
  | Annotation.Kenum bv ->
      Buffer.add_char b 'K';
      buf_int b (Svs_obs.Bitvec.k bv);
      buf_str b (Svs_obs.Bitvec.to_bytes bv)

let buf_view b (v : View.t) =
  buf_int b v.View.id;
  List.iter (buf_int b) v.View.members;
  Buffer.add_char b '|'

let buf_data ~payload b (d : _ data) =
  buf_id b d.id;
  buf_int b d.view_id;
  buf_str b (payload d.payload);
  buf_ann b d.ann

let buf_floors b floors =
  List.iter
    (fun (s, sn) ->
      buf_int b s;
      buf_int b sn)
    (List.sort compare floors)

let buf_wire ~payload b = function
  | Wdata d ->
      Buffer.add_char b 'D';
      buf_data ~payload b d
  | Winit { view_id; leave; join } ->
      Buffer.add_char b 'I';
      buf_int b view_id;
      List.iter (buf_int b) leave;
      Buffer.add_char b '|';
      List.iter (buf_int b) join
  | Wpred { view_id; msgs } ->
      Buffer.add_char b 'P';
      buf_int b view_id;
      List.iter (buf_data ~payload b) msgs
  | Wstable { floors } ->
      Buffer.add_char b 'S';
      buf_floors b floors
  | Wjoin { joiner } ->
      Buffer.add_char b 'J';
      buf_int b joiner
  | Wsync { view; floors; app } ->
      Buffer.add_char b 'Y';
      buf_view b view;
      buf_floors b floors;
      (match app with
      | None -> Buffer.add_char b '-'
      | Some s -> buf_str b s)

let mc_wire_digest ~payload wire =
  let b = Buffer.create 64 in
  buf_wire ~payload b wire;
  Digest.string (Buffer.contents b)

let mc_fingerprint ~payload t =
  let b = Buffer.create 256 in
  Buffer.add_char b
    (match t.status with Member -> 'M' | Joining -> 'J' | Parked -> 'P' | Dead -> 'X');
  buf_view b t.cv;
  buf_bool b t.blocked;
  buf_int b t.next_sn;
  buf_bool b t.lease_uncertain;
  Dq.iter
    (function
      | Edata d ->
          Buffer.add_char b 'd';
          buf_data ~payload b d
      | Eview v ->
          Buffer.add_char b 'v';
          buf_view b v)
    t.to_deliver;
  Buffer.add_char b '/';
  Retained.fold_right (fun d () -> buf_data ~payload b d) t.delivered_this_view ();
  Buffer.add_char b '/';
  buf_floors b (floors t);
  (match t.vc with
  | None -> Buffer.add_char b '-'
  | Some vc ->
      Buffer.add_char b 'C';
      List.iter (buf_int b) (List.sort compare vc.leave);
      Buffer.add_char b '|';
      List.iter (buf_int b) (List.sort compare vc.join);
      Buffer.add_char b '|';
      Msg_id.Map.iter
        (fun id d ->
          buf_id b id;
          buf_data ~payload b d)
        vc.global_pred;
      Buffer.add_char b '|';
      List.iter (buf_int b) (List.sort compare vc.pred_received);
      buf_bool b vc.pred_sent;
      buf_bool b vc.proposed);
  Buffer.add_char b '/';
  Queue.iter
    (fun (src, wire) ->
      buf_int b src;
      buf_wire ~payload b wire)
    t.stash;
  Buffer.add_char b '/';
  List.iter
    (fun (peer, tbl) ->
      buf_int b peer;
      buf_floors b (Hashtbl.fold (fun s sn acc -> (s, sn) :: acc) tbl []))
    (List.sort
       (fun (a, _) (b, _) -> compare (a : int) b)
       (Hashtbl.fold (fun p tbl acc -> (p, tbl) :: acc) t.peer_floors []));
  Buffer.add_char b '/';
  buf_int b (List.length t.outputs);
  Digest.string (Buffer.contents b)
