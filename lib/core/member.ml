module Engine = Svs_sim.Engine
module Ct = Svs_consensus.Chandra_toueg
module Metrics = Svs_telemetry.Metrics
module Trace = Svs_telemetry.Trace
open Types

let src = Logs.Src.create "svs.member" ~doc:"SVS member shell"

module Log = (val Logs.src_log src : Logs.LOG)

type 'p host = {
  send_wire : dst:int -> 'p wire -> unit;
  send_cons : dst:int -> view_id:int -> 'p proposal Ct.msg -> unit;
  suspects : int -> bool;
  suspected : unit -> int list;
  propose : (view_id:int -> 'p proposal -> unit) option;
  backlog : unit -> int;
  deliverable : unit -> unit;
  installed : View.t -> unit;
  excluded : View.t -> rejoin:bool -> unit;
  synced : View.t -> string option -> unit;
  parked : unit -> unit;
  rejoin : unit -> unit;
  lag : int -> float * int;
  send_digest : dst:int -> view_id:int -> int -> unit;
}

type divergence = { period : float; rounds : int; heal : bool }

type laggard = { report_after : float; evict_after : float option }

type 'p t = {
  me : int;
  engine : Engine.t;
  clock : unit -> float;
  host : 'p host;
  suspects : int -> bool; (* the host's detector, plus [evicting] *)
  semantic : bool;
  evict_uncovered : bool;
  tracer : Trace.t;
  metrics : Metrics.t option;
  contacts : int list; (* every other initial member, for the join nag *)
  mutable proto : 'p Protocol.t; (* swapped for a fresh joiner on restart *)
  mutable down : bool; (* crashed, shut down or excluded; cleared by restart *)
  mutable state_transfer : (unit -> string option) option;
  instances : (int, 'p proposal Ct.t) Hashtbl.t;
  (* Consensus traffic for an instance this member has not started yet
     (its own PRED set is still incomplete), replayed at the start. *)
  cons_stash : (int, (int * 'p proposal Ct.msg) list ref) Hashtbl.t;
  (* Park bookkeeping: when the member first became blocked in its
     current view (the park deadline measures from here), and when it
     parked (the merge span measures from here). *)
  park_timeout : float option;
  merge : bool;
  mutable blocked_obs : (int * float) option;
  mutable park_epoch : float option;
  mutable parks : int;
  merge_spans : Metrics.Histogram.t;
  (* Divergence bookkeeping: the last digest every peer reported (with
     the view it reported for), the consecutive-disagreement streak and
     the disagreement it counts, and whether a self-demotion is in
     flight. *)
  divergence : divergence option;
  mutable state_digest : (unit -> int) option;
  peer_digests : (int, int * int) Hashtbl.t;
  mutable div_streak : int;
  mutable div_last : (int * int) option;
  mutable heal_pending : bool;
  divergences : Metrics.Counter.t;
  (* Laggard bookkeeping: peers reported in their current episode over
     the driver's limit, and peers being evicted. An evicting peer is
     suspected for as long as its lag lasts — its (alive, still
     beating) detector cannot rescind that — and the episode ends when
     its lag reads 0. *)
  reported : (int, unit) Hashtbl.t;
  evicting : (int, unit) Hashtbl.t;
  slow_reports : Metrics.Counter.t;
}

let protocol m = m.proto

let view m = Protocol.current_view m.proto

let is_down m = m.down

let is_blocked m = Protocol.blocked m.proto

let is_member m = (not m.down) && Protocol.alive m.proto && View.mem m.me (view m)

let is_joining m = (not m.down) && Protocol.joining m.proto

let pending m = Protocol.to_deliver_length m.proto

let parked m = m.park_epoch <> None

let parks m = m.parks

let divergences m = Metrics.Counter.value m.divergences

let divergence_streak m = m.div_streak

let slow_reports m = Metrics.Counter.value m.slow_reports

let evicting m p = Hashtbl.mem m.evicting p

let set_state_digest m f = m.state_digest <- Some f

let set_state_transfer m f =
  m.state_transfer <- Some f;
  Protocol.set_state_transfer m.proto f

(* The digest compared by divergence gossip: everything a correct
   member's replicated state is a function of — installed view, merged
   delivery floors, and the application's own digest. *)
let digest m =
  let v = view m in
  let app = match m.state_digest with Some f -> f () | None -> 0 in
  Hashtbl.hash (v.View.id, v.View.members, List.sort compare (Protocol.floors m.proto), app)

let note_digest m ~src ~view_id d = Hashtbl.replace m.peer_digests src (view_id, d)

let recovery m =
  {
    Protocol.view_id = (view m).View.id;
    floors = Protocol.floors m.proto;
    next_sn = Protocol.next_sn m.proto;
  }

let stop_consensus m =
  Hashtbl.iter (fun _ inst -> Ct.stop inst) m.instances;
  Hashtbl.reset m.instances;
  Hashtbl.reset m.cons_stash

let halt m =
  m.down <- true;
  stop_consensus m

let rec drain m =
  handle_outputs m (Protocol.take_outputs m.proto);
  m.host.deliverable ()

and handle_outputs m = function
  | [] -> ()
  | out :: rest ->
      handle_output m out;
      handle_outputs m rest

and handle_output m = function
  | Send { dst; wire } -> m.host.send_wire ~dst wire
  | Installed v -> m.host.installed v
  | Synced { view; app } -> synced m view app
  | Excluded v -> excluded m v
  | Propose { view_id; proposal } -> (
      match m.host.propose with
      | Some propose -> propose ~view_id proposal
      | None -> start_instance m ~view_id proposal)

and start_instance m ~view_id proposal =
  if not (Hashtbl.mem m.instances view_id) then begin
    let inst =
      Ct.create m.engine ~me:m.me ~members:(view m).View.members ~suspects:m.suspects
        ~send:(fun ~dst msg -> m.host.send_cons ~dst ~view_id msg)
        ~on_decide:(fun v -> decided m ~view_id v)
        proposal
    in
    Hashtbl.replace m.instances view_id inst;
    (match Hashtbl.find_opt m.cons_stash view_id with
    | None -> ()
    | Some stash ->
        let msgs = List.rev !stash in
        Hashtbl.remove m.cons_stash view_id;
        List.iter (fun (src, msg) -> Ct.on_message inst ~src msg) msgs);
    drain m
  end

and decided m ~view_id v =
  if not m.down then begin
    Protocol.decided m.proto ~view_id v;
    drain m
  end

and synced m view app =
  (match m.park_epoch with
  | None -> ()
  | Some t0 ->
      (* Merge-on-heal completed: the parked member is back in the
         primary component as a new incarnation. *)
      let dt = m.clock () -. t0 in
      m.park_epoch <- None;
      Metrics.Histogram.observe m.merge_spans dt;
      if Trace.enabled m.tracer then
        Trace.emit m.tracer
          (Trace.Merge
             { node = m.me; view_id = view.View.id; parked_ms = int_of_float (dt *. 1000.0) }));
  (* Re-synced state is authoritative: restart the divergence
     bookkeeping from scratch. *)
  m.div_streak <- 0;
  m.div_last <- None;
  Hashtbl.reset m.peer_digests;
  m.host.synced view app

(* Exclusion. A member that fell out of the primary component (cut off
   past the park deadline, whose exclusion can race the watchdog) or
   that asked for its own exclusion to heal a divergence comes back as
   a probing joiner; any other exclusion is final. The swap is deferred
   to the next engine tick: [Excluded] fires mid-drain, and the
   protocol must not be replaced under it. *)
and excluded m v =
  halt m;
  let rejoin = m.heal_pending || (m.park_timeout <> None && m.merge) in
  m.host.excluded v ~rejoin;
  if rejoin then
    ignore
      (Engine.schedule m.engine ~delay:0.0 (fun () ->
           if not (is_member m || is_joining m) then begin
             m.heal_pending <- false;
             rejoin_via_probe m
           end)
        : Engine.handle)

(* Turn a member that has fallen out of the primary component back into
   a recovering joiner (the driver's [rejoin] hook swaps the protocol
   through {!restart}) that nags every peer in turn — cycling contacts,
   since any single one may be blocked, excluded, dead, or on the far
   side of a partition that holds the request until the heal. *)
and rejoin_via_probe m =
  m.host.rejoin ();
  start_join_nag m

and start_join_nag m =
  match m.contacts with
  | [] -> ()
  | contacts ->
      let k = ref 0 in
      ignore
        (Engine.every m.engine ~period:0.25 (fun () ->
             if is_joining m then begin
               let contact = List.nth contacts (!k mod List.length contacts) in
               incr k;
               request_join m ~contact;
               true
             end
             else false)
          : Engine.handle)

and request_join m ~contact =
  if not m.down then begin
    Protocol.join_request m.proto ~contact;
    drain m
  end

let restart m ?recovery () =
  let proto =
    Protocol.create_joiner ~me:m.me ?recovery ~semantic:m.semantic
      ~evict_uncovered:m.evict_uncovered ~tracer:m.tracer
      ?metrics:m.metrics ~clock:m.clock ~suspects:m.suspects ()
  in
  (match m.state_transfer with Some f -> Protocol.set_state_transfer proto f | None -> ());
  stop_consensus m;
  m.blocked_obs <- None;
  m.proto <- proto;
  m.down <- false

let receive m ~src wire =
  if not m.down then begin
    Protocol.receive m.proto ~src wire;
    drain m
  end

let on_cons m ~src ~view_id msg =
  if not m.down then
    match Hashtbl.find_opt m.instances view_id with
    | Some inst ->
        Ct.on_message inst ~src msg;
        drain m
    | None ->
        if view_id >= (view m).View.id then begin
          let stash =
            match Hashtbl.find_opt m.cons_stash view_id with
            | Some s -> s
            | None ->
                let s = ref [] in
                Hashtbl.replace m.cons_stash view_id s;
                s
          in
          stash := (src, msg) :: !stash
        end

let on_suspicion m =
  if (not m.down) && Protocol.alive m.proto then begin
    Protocol.notify_suspicion_change m.proto;
    let suspected = m.host.suspected () in
    let leave =
      suspected
      @ List.filter (fun p -> evicting m p && not (List.mem p suspected)) (view m).View.members
    in
    if leave <> [] then Protocol.trigger_view_change m.proto ~leave ();
    drain m
  end

let multicast m ?ann payload =
  if m.down then Error `Not_member
  else begin
    let result = Protocol.multicast m.proto ?ann payload in
    drain m;
    result
  end

let deliver m = if m.down then None else Protocol.deliver m.proto

let trigger_view_change m ?join ~leave () =
  if not m.down then begin
    Protocol.trigger_view_change m.proto ?join ~leave ();
    drain m
  end

(* Quorum loss: the park deadline expired with this member still
   blocked in the same view change. It leaves the group — no
   multicasts, no fresh deliveries, no installs — keeping its floors,
   and with [merge] turns into a probing joiner. *)
let park m =
  if is_member m then begin
    Protocol.park m.proto;
    stop_consensus m;
    m.blocked_obs <- None;
    m.park_epoch <- Some (m.clock ());
    m.parks <- m.parks + 1;
    m.host.parked ();
    if m.merge then rejoin_via_probe m
  end

let watch_park m ~deadline =
  if is_member m && is_blocked m then begin
    let vid = (view m).View.id in
    let now = m.clock () in
    match m.blocked_obs with
    | Some (v, t0) when v = vid -> if now -. t0 >= deadline then park m
    | Some _ | None -> m.blocked_obs <- Some (vid, now)
  end
  else m.blocked_obs <- None

let reset_streak m =
  m.div_streak <- 0;
  m.div_last <- None

(* One round of the divergence check. Digests legitimately differ
   while traffic is in flight (floors advance at different times), so
   a member only counts a round against itself when it is quiescent
   (nothing held back, queued or undelivered) and {e every} other
   member of its view reports one common digest that differs from its
   own — and only a streak of such rounds convicts. With [heal] the
   conviction is a self-exclusion followed by the probing-joiner
   re-entry, so JOIN/SYNC with state transfer heals the replica. *)
let check_divergence m =
  match m.divergence with
  | None -> ()
  | Some { rounds; heal; _ } ->
      if m.heal_pending then begin
        (* The self-exclusion can race a concurrent view change and be
           dropped: keep nudging until it lands. *)
        if is_member m && not (is_blocked m) then trigger_view_change m ~leave:[ m.me ] ()
      end
      else if is_member m && (not (is_blocked m)) && m.host.backlog () = 0 && pending m = 0
      then begin
        let v = view m in
        let mine = digest m in
        let others = List.filter (fun p -> p <> m.me) v.View.members in
        let reports =
          List.filter_map
            (fun p ->
              match Hashtbl.find_opt m.peer_digests p with
              | Some (vid, d) when vid = v.View.id -> Some d
              | _ -> None)
            others
        in
        match reports with
        | theirs :: rest
          when others <> []
               && List.length reports = List.length others
               && theirs <> mine
               && List.for_all (fun d -> d = theirs) rest ->
            (* Only the *same* disagreement extends the streak:
               in-flight traffic makes floors (and so digests) drift
               between rounds — a healthy member momentarily behind its
               peers sees a different disagreement each round, while a
               genuinely corrupt quiescent replica freezes on one. *)
            (match m.div_last with
            | Some (pm, pd) when pm = mine && pd = theirs -> m.div_streak <- m.div_streak + 1
            | Some _ | None ->
                m.div_streak <- 1;
                m.div_last <- Some (mine, theirs));
            if m.div_streak >= rounds then begin
              Log.warn (fun f ->
                  f "member %d: state digest diverged from the rest of view %d%s" m.me v.View.id
                    (if heal then " — self-demoting" else ""));
              reset_streak m;
              Metrics.Counter.incr m.divergences;
              if Trace.enabled m.tracer then
                Trace.emit m.tracer (Trace.Divergence { node = m.me; view_id = v.View.id });
              if heal then begin
                m.heal_pending <- true;
                trigger_view_change m ~leave:[ m.me ] ()
              end
            end
        | _ -> reset_streak m
      end
      else reset_streak m

(* The "floors rose" rule: on each host tick, a member whose receive
   floors rose since its last STABLE sends them, so stability follows
   delivery by a tick instead of a [stability_period]; the period only
   resends unchanged floors. The tick also trims what a slow consumer
   delivered after the last STABLE arrived. *)
let stability_tick m =
  if not m.down then begin
    if Protocol.floors_risen m.proto then begin
      Protocol.gossip_stability m.proto;
      drain m
    end;
    Protocol.trim_delivered m.proto
  end

(* Digest gossip: once a period, a member of a settled view sends its
   digest to every other member of it. *)
let send_digests m =
  if is_member m && not (is_blocked m) then begin
    let v = view m in
    let d = digest m in
    List.iter
      (fun p -> if p <> m.me then m.host.send_digest ~dst:p ~view_id:v.View.id d)
      v.View.members
  end

(* One tick of the laggard rule: purging and the driver's flow control
   come first, reconfiguration is the last resort (§1, §3.2). A peer
   whose link has been over the driver's limit for [report_after] is
   reported once per episode; at [evict_after] it is suspected, which
   hands it to the ordinary suspicion → view-change path, so the group
   agrees on a view without it. The suspicion event repeats every tick
   while the laggard is still in the view: a view change already
   underway absorbs the first one without excluding it. *)
let check_laggards m { report_after; evict_after } =
  if not m.down then
    List.iter
      (fun p ->
        let over, pending = m.host.lag p in
        if over <= 0.0 then begin
          Hashtbl.remove m.reported p;
          Hashtbl.remove m.evicting p
        end
        else begin
          if over >= report_after && not (Hashtbl.mem m.reported p) then begin
            Hashtbl.replace m.reported p ();
            Metrics.Counter.incr m.slow_reports;
            Log.warn (fun f ->
                f "member %d: peer %d over the limit for %.2fs (%d pending)" m.me p over pending);
            if Trace.enabled m.tracer then
              Trace.emit m.tracer
                (Trace.Backpressure { node = m.me; peer = p; stage = "reported"; pending })
          end;
          match evict_after with
          | Some deadline when over >= deadline && is_member m && View.mem p (view m) ->
              if not (Hashtbl.mem m.evicting p) then begin
                Hashtbl.replace m.evicting p ();
                Log.warn (fun f ->
                    f "member %d: evicting slow peer %d after %.2fs over the limit" m.me p over);
                if Trace.enabled m.tracer then
                  Trace.emit m.tracer (Trace.Suspect { node = m.me; suspect = p })
              end;
              on_suspicion m
          | Some _ | None -> ()
        end)
      m.contacts

let create engine ~me ~peers ~clock ?(semantic = true) ?(evict_uncovered = false)
    ?(tracer = Trace.nop) ?metrics ?recovery
    ?park_timeout ?(merge = true) ?divergence ?laggard ?stability_period
    ?(merge_spans = Metrics.Histogram.detached ())
    ?(divergences = Metrics.Counter.detached ()) ?(slow_reports = Metrics.Counter.detached ())
    (host : _ host) =
  let evicting = Hashtbl.create 7 in
  let suspects p = Hashtbl.mem evicting p || host.suspects p in
  let proto =
    match recovery with
    | Some _ ->
        Protocol.create_joiner ~me ?recovery ~semantic ~evict_uncovered ~tracer ?metrics ~clock
          ~suspects ()
    | None ->
        Protocol.create ~me
          ~initial_view:(View.initial ~members:peers)
          ~semantic ~evict_uncovered ~tracer ?metrics ~clock ~suspects ()
  in
  let m =
    {
      me;
      engine;
      clock;
      host;
      suspects;
      semantic;
      evict_uncovered;
      tracer;
      metrics;
      contacts = List.filter (fun p -> p <> me) (List.sort_uniq compare peers);
      proto;
      down = false;
      state_transfer = None;
      instances = Hashtbl.create 7;
      cons_stash = Hashtbl.create 7;
      park_timeout;
      merge;
      blocked_obs = None;
      park_epoch = None;
      parks = 0;
      merge_spans;
      divergence;
      state_digest = None;
      peer_digests = Hashtbl.create 7;
      div_streak = 0;
      div_last = None;
      heal_pending = false;
      divergences;
      reported = Hashtbl.create 7;
      evicting;
      slow_reports;
    }
  in
  let every ?start period f =
    ignore
      (Engine.every engine ?start ~period (fun () ->
           f ();
           true)
        : Engine.handle)
  in
  (* Primary-component survival: the deadline only starts once a view
     change is actually underway, which under automatic view changes
     means the detector suspected someone. *)
  (match park_timeout with
  | None -> ()
  | Some deadline -> every (Float.max 0.01 (deadline /. 4.0)) (fun () -> watch_park m ~deadline));
  (match stability_period with
  | None -> ()
  | Some period ->
      every period (fun () ->
          if not m.down then begin
            Protocol.gossip_stability m.proto;
            drain m
          end));
  (* Evaluated half a period off the digest gossip's phase, so every
     peer's latest report had time to arrive. *)
  (match divergence with
  | None -> ()
  | Some { period; _ } ->
      every period (fun () -> send_digests m);
      every ~start:(period /. 2.0) period (fun () -> check_divergence m));
  (match laggard with
  | None -> ()
  | Some policy ->
      every (Float.max 0.01 (policy.report_after /. 4.0)) (fun () -> check_laggards m policy));
  if Protocol.joining proto then start_join_nag m;
  m
