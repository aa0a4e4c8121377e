module Heartbeat = Svs_detector.Heartbeat
module Ct = Svs_consensus.Chandra_toueg
module Member = Svs_core.Member
module Protocol = Svs_core.Protocol
module Types = Svs_core.Types
module View = Svs_core.View
module Wire_codec = Svs_core.Wire_codec
module Codec = Svs_codec.Codec
module Metrics = Svs_telemetry.Metrics
module Trace = Svs_telemetry.Trace
module Msg_id = Svs_obs.Msg_id
module Shed = Svs_obs.Shed
module Annotation = Svs_obs.Annotation

let src = Logs.Src.create "svs.rt" ~doc:"SVS real-time node"

module Log = (val Logs.src_log src : Logs.LOG)

(* The member shell's laggard rule, measured on the time a link has
   spent continuously over the hard watermark: the transport stalls
   the link and sheds obsolete frames first, then the member reports
   the peer, and finally evicts it. *)
type slow_member_policy = Member.laggard = {
  report_after : float;
  evict_after : float option;
}

let default_slow_member = { report_after = 2.0; evict_after = Some 15.0 }

type config = {
  semantic : bool;
  heartbeat : Heartbeat.config;
  stability_period : float option;
  park_timeout : float option;
  tracer : Trace.t;
  metrics : Metrics.t option;
  hostile : Tcp_mesh.hostile_policy;
  divergence_period : float option;
      (* Gossip and check the state digest at this period; None
         disables divergence self-healing. *)
  backpressure : Tcp_mesh.backpressure_policy;
  slow_member : slow_member_policy;
  max_frame : int;
      (* Largest single inbound frame the mesh will buffer. The view
         change's PRED echoes every unstable message as one frame, so
         groups with large payloads or deep unstable backlogs need
         this above the flush size or the exchange resets the link. *)
}

let default_config =
  {
    semantic = true;
    heartbeat = Heartbeat.default_config;
    stability_period = Some 1.0;
    park_timeout = None;
    tracer = Trace.nop;
    metrics = None;
    hostile = Tcp_mesh.default_hostile_policy;
    divergence_period = None;
    backpressure = Tcp_mesh.default_backpressure;
    slow_member = default_slow_member;
    max_frame = 8 * 1024 * 1024;
  }

(* How many consecutive divergence checks must agree before a node
   self-demotes: one mismatched sample can be a legitimate in-flight
   difference, a persistent one is corruption. *)
let divergence_rounds = 3

(* Packets on the mesh: protocol wire messages, consensus messages for
   a view-change instance, heartbeats, and the replicated-state digest
   gossip (only with [divergence_period] set). *)
type 'p packet =
  | Proto of 'p Types.wire
  | Cons of { view_id : int; msg : 'p Types.proposal Ct.msg }
  | Beat
  | Digest of { view_id : int; digest : int }

let write_packet pc w = function
  | Proto wire ->
      Codec.Writer.uint8 w 0;
      Wire_codec.write_wire pc w wire
  | Cons { view_id; msg } ->
      Codec.Writer.uint8 w 1;
      Codec.Writer.varint w view_id;
      Ct.write_msg (Wire_codec.write_proposal pc) w msg
  | Beat -> Codec.Writer.uint8 w 2
  | Digest { view_id; digest } ->
      Codec.Writer.uint8 w 3;
      Codec.Writer.varint w view_id;
      Codec.Writer.zigzag w digest

let read_packet pc r =
  match Codec.Reader.uint8 r with
  | 0 -> Proto (Wire_codec.read_wire pc r)
  | 1 ->
      let view_id = Codec.Reader.varint r in
      let msg = Ct.read_msg (Wire_codec.read_proposal pc) r in
      Cons { view_id; msg }
  | 2 -> Beat
  | 3 ->
      let view_id = Codec.Reader.varint r in
      let digest = Codec.Reader.zigzag r in
      Digest { view_id; digest }
  | n -> raise (Codec.Malformed (Printf.sprintf "packet tag %d" n))

type 'p t = {
  loop : Loop.t;
  me : int;
  started_at : float;
  core : 'p Member.t;
  wal : Wal.t option;
  mesh : Tcp_mesh.t;
  hb : Heartbeat.t;
  mutable stopped : bool;
  tracer : Trace.t;
  peers_ids : int list;
  suspicions : Metrics.Counter.t;
}

let proto t = Member.protocol t.core

let view t = Member.view t.core

let is_member t = (not t.stopped) && Member.is_member t.core

let is_joining t = (not t.stopped) && Member.is_joining t.core

let parked t = Member.parked t.core

let divergences t = Member.divergences t.core

let purged t = Protocol.purged_count (proto t)

let purged_at t site = Protocol.purged_at (proto t) site

let stable_trimmed t = Protocol.stable_trimmed (proto t)

let stable_rounds t = Protocol.stable_rounds (proto t)

let bytes_out t = Tcp_mesh.bytes_out t.mesh

let bytes_in t = Tcp_mesh.bytes_in t.mesh

let suspicions t = Metrics.Counter.value t.suspicions

let pending_to t ~dst = Tcp_mesh.pending_bytes t.mesh ~dst

let send_packet mesh w pc ~dst packet =
  Codec.Writer.clear w;
  write_packet pc w packet;
  (* Annotated data frames are the ones semantic shedding may purge
     from a congested link's queue (a newer queued frame obsoleting
     them); everything else — control traffic, unannotated data — is
     always retained. *)
  let meta =
    match packet with
    | Proto (Types.Wdata d) when d.Types.ann <> Annotation.Unrelated ->
        Some { Shed.id = d.Types.id; ann = d.Types.ann; view = d.Types.view_id }
    | _ -> None
  in
  (* The writer's bytes move straight into the mesh batch — no
     per-packet string, no per-packet syscall. *)
  Tcp_mesh.send_writer mesh ~dst ?meta w

(* Written-off peers are alive by agreement (listed in an installed
   view) or on the far side of a cut this node is probing across:
   forgive them and open a fresh FIFO stream. *)
let forgive_peers t ps =
  List.iter
    (fun p -> if p <> t.me && Tcp_mesh.written_off t.mesh ~dst:p then Tcp_mesh.forget_peer t.mesh ~dst:p)
    ps

(* Out of the group for good: the node's automata stop, and their
   timers leave the loop's engine within a period. *)
let stop t =
  t.stopped <- true;
  Heartbeat.stop t.hb;
  Member.close t.core

let installed t v =
  Log.info (fun m -> m "node %d installed %a" t.me View.pp v);
  (* The installed view is the recovery anchor: make it durable
     before acting in it. *)
  (match t.wal with Some w -> Wal.append_durable w (Wal.Install v) | None -> ());
  forgive_peers t v.View.members;
  (* Frames queued towards peers the group just agreed are out are
     dead weight against the mesh budget: drop them. (Their next
     incarnation re-enters via JOIN/SYNC on a fresh stream.) The
     flush first pushes whatever the kernel will still take — on a
     healthy link that includes the consensus DECIDE telling the
     excluded peer about this very view, which it needs to start
     rejoining; only the undeliverable backlog is dropped. *)
  if List.exists (fun p -> p <> t.me && not (List.mem p v.View.members)) t.peers_ids then begin
    Tcp_mesh.flush t.mesh;
    List.iter
      (fun p ->
        if p <> t.me && not (List.mem p v.View.members) then
          ignore (Tcp_mesh.drop_pending t.mesh ~dst:p : int))
      t.peers_ids
  end

(* Fallen out of the primary component: the member shell swaps in a
   recovering joiner of the same identity. The durable floors make
   re-entry duplicate-free; the sequence lease keeps the new
   incarnation's sns fresh. *)
let rejoin t =
  Member.restart t.core ~recovery:(Member.recovery t.core) ();
  forgive_peers t t.peers_ids

let on_packet t ~src packet =
  if not t.stopped then
    match packet with
    | Beat -> Heartbeat.on_heartbeat t.hb ~src
    | Digest { view_id; digest } -> Member.note_digest t.core ~src ~view_id digest
    | Proto wire ->
        (match wire with
        | Types.Wdata d ->
            if Trace.enabled t.tracer then
              Trace.emit t.tracer
                (Trace.Rx
                   {
                     node = t.me;
                     src;
                     sender = d.Types.id.Msg_id.sender;
                     sn = d.Types.id.Msg_id.sn;
                     view_id = d.Types.view_id;
                   })
        | _ -> ());
        Member.receive t.core ~src wire
    | Cons { view_id; msg } -> Member.on_cons t.core ~src ~view_id msg

let multicast t ?ann payload =
  if t.stopped then Error `Not_member else Member.multicast t.core ?ann payload

(* Admission control. {!multicast} never blocks the caller — a slow
   peer's frames queue (and shed) in the mesh — so a publisher that
   outruns the group indefinitely would exhaust the mesh budget. A
   well-behaved application checks {!would_block} (or uses
   {!try_multicast}) and retries later. *)
let would_block t = Tcp_mesh.would_block t.mesh

let try_multicast t ?ann payload =
  if t.stopped then Error `Not_member
  else if would_block t then Error `Would_block
  else
    (multicast t ?ann payload
      : (_, [ `Blocked | `Not_member ]) result
      :> (_, [ `Blocked | `Not_member | `Would_block ]) result)

let shed_frames t = Tcp_mesh.shed_frames t.mesh

let slow_reports t = Member.slow_reports t.core

let pause_reads t = Tcp_mesh.pause_reads t.mesh

let resume_reads t = Tcp_mesh.resume_reads t.mesh

let deliver t =
  if t.stopped then None
  else
    match Member.deliver t.core with
    | Some (Types.Data d) as r ->
        (* The floor is noted in memory and written once per sender by
           the next sync: a crash before it only re-widens the floor,
           never narrows it below a delivery that was made durable. *)
        (match t.wal with
        | Some w -> Wal.note_floor w ~sender:d.Types.id.Msg_id.sender ~sn:d.Types.id.Msg_id.sn
        | None -> ());
        r
    | r -> r

let deliver_all t =
  let rec go acc = match deliver t with None -> List.rev acc | Some d -> go (d :: acc) in
  go []

let pending t = Member.pending t.core

let status_label t =
  if t.stopped then "stopped"
  else if Protocol.parked (proto t) then "parked"
  else if Protocol.joining (proto t) then "joining"
  else if Protocol.blocked (proto t) then "blocked"
  else if Protocol.alive (proto t) then "member"
  else "dead"

let wal_segment t = match t.wal with Some w -> Some (Wal.current_segment w) | None -> None

let status_json t =
  let b = Buffer.create 512 in
  let v = view t in
  Printf.bprintf b
    "{\"node\":%d,\"status\":\"%s\",\"uptime_s\":%.3f,\"view\":{\"id\":%d,\"members\":[%s]},"
    t.me (status_label t)
    (Loop.now t.loop -. t.started_at)
    v.View.id
    (String.concat "," (List.map string_of_int v.View.members));
  Printf.bprintf b
    "\"pending\":%d,\"purged\":%d,\"evicted\":%d,\"retained_peak\":%d,\"suspicions\":%d,\"next_sn\":%d,"
    (pending t) (purged t)
    (Protocol.evicted (proto t))
    (Protocol.retained_peak (proto t))
    (suspicions t)
    (Protocol.next_sn (proto t));
  Printf.bprintf b "\"floors\":{%s},"
    (String.concat ","
       (List.map
          (fun (sender, sn) -> Printf.sprintf "\"%d\":%d" sender sn)
          (List.sort compare (Protocol.floors (proto t)))));
  (match wal_segment t with
  | Some seg -> Printf.bprintf b "\"wal\":{\"segment\":%d}," seg
  | None -> Printf.bprintf b "\"wal\":null,");
  let bp = Tcp_mesh.backpressure t.mesh in
  Printf.bprintf b
    "\"backpressure\":{\"soft\":%d,\"hard\":%d,\"budget\":%d,\"shed\":%b,\"total_pending\":%d,\"would_block\":%b,\"shed_frames\":%d,\"slow_reports\":%d},"
    bp.Tcp_mesh.soft bp.Tcp_mesh.hard bp.Tcp_mesh.budget bp.Tcp_mesh.shed
    (Tcp_mesh.total_pending t.mesh)
    (would_block t) (shed_frames t) (slow_reports t);
  Printf.bprintf b "\"bytes_out\":%d,\"bytes_in\":%d,\"peers\":[%s]}" (bytes_out t)
    (bytes_in t)
    (String.concat ","
       (List.map
          (fun (p : Tcp_mesh.peer_stat) ->
            (* The adaptive heartbeat timeout sits next to the flow
               state so an operator can tell a laggard (big pending,
               hard stage) from a lossy link (inflated timeout). *)
            let hb_timeout =
              try Heartbeat.timeout_of t.hb p.Tcp_mesh.peer with Invalid_argument _ -> 0.0
            in
            Printf.sprintf
              "{\"peer\":%d,\"up\":%b,\"nodelay\":%b,\"pending\":%d,\"attempts\":%d,\"written_off\":%b,\"quarantined\":%b,\"hb_timeout_s\":%.3f,\"stage\":\"%s\",\"shed\":%d,\"over_hard_s\":%.3f,\"evicting\":%b}"
              p.Tcp_mesh.peer p.Tcp_mesh.up p.Tcp_mesh.nodelay p.Tcp_mesh.pending
              p.Tcp_mesh.attempts p.Tcp_mesh.written_off p.Tcp_mesh.quarantined hb_timeout
              (Tcp_mesh.stage_name p.Tcp_mesh.stage)
              p.Tcp_mesh.shed p.Tcp_mesh.over_hard_s
              (Member.evicting t.core p.Tcp_mesh.peer))
          (List.filter (fun (p : Tcp_mesh.peer_stat) -> p.Tcp_mesh.peer <> t.me)
             (Tcp_mesh.peer_stats t.mesh))));
  Buffer.contents b

let create loop ~me ~listen_fd ~peers ~payload_codec ?(config = default_config)
    ?(on_deliverable = fun () -> ()) ?data_dir ?state_transfer ?state_digest
    ?(on_synced = fun _ _ -> ()) () =
  let members = List.sort_uniq compare (List.map fst peers) in
  if not (List.mem me members) then invalid_arg "Node.create: me must be a peer";
  let engine = Loop.engine loop in
  let started_at = Loop.now loop in
  (* Trace events carry wall-clock timestamps in the runtime. *)
  Trace.set_clock config.tracer (fun () -> Loop.now loop);
  Option.iter (Svs_sim.Engine.attach_metrics engine) config.metrics;
  let wal, recovered =
    match data_dir with
    | None -> (None, None)
    | Some dir ->
        (* A foreign log is a deployment error the caller must surface
           (a clean refusal, not a stack trace from deep inside). *)
        let w, r = Wal.open_exn ~dir ~me ?metrics:config.metrics () in
        if Trace.enabled config.tracer then
          Trace.emit config.tracer
            (Trace.WalRecovery
               {
                 node = me;
                 records = r.Wal.records;
                 truncated = r.Wal.truncated;
                 skipped = r.Wal.skipped;
                 tainted = r.Wal.tainted;
               });
        Log.info (fun m ->
            m "node %d: wal in %s replayed %d records (%d bytes discarded, %d regions salvaged)%s%s"
              me dir r.Wal.records r.Wal.truncated r.Wal.skipped
              (if r.Wal.tainted then ", TAINTED" else "")
              (if r.Wal.fresh then ", fresh" else ""));
        (Some w, Some r)
  in
  let node_label = [ ("node", string_of_int me) ] in
  let counter name =
    match config.metrics with
    | None -> Metrics.Counter.detached ()
    | Some reg -> Metrics.counter reg ~labels:node_label name
  in
  let t_ref = ref None in
  let mesh =
    Tcp_mesh.create loop ~me ~listen_fd ~peers
      ~on_frame:(fun ~src frame ->
        match !t_ref with
        | None -> ()
        | Some t -> (
            (* [frame] is a borrowed slice into the mesh's inbound
               buffer; decoding happens entirely within the callback. *)
            match read_packet payload_codec (Codec.Reader.of_slice frame) with
            | packet -> on_packet t ~src packet
            | exception (Codec.Truncated | Codec.Malformed _) ->
                Log.warn (fun m -> m "node %d: malformed frame from %d" me src);
                (* Feed the transport's misbehavior score: repeated
                   garbage escalates to link reset and quarantine. *)
                Tcp_mesh.note_misbehavior t.mesh ~src ~reason:"bad-frame"))
      ~tracer:config.tracer ?metrics:config.metrics ~hostile:config.hostile
      ~backpressure:config.backpressure ~max_frame:config.max_frame ()
  in
  (* One writer, reused for every outbound packet. *)
  let send = send_packet mesh (Codec.Writer.create ~initial_capacity:256 ()) payload_codec in
  let hb_ref = ref None in
  let with_t f = match !t_ref with Some t -> f t | None -> () in
  let host =
    {
      Member.send_wire =
        (fun ~dst wire ->
          (match wire with
          | Types.Wdata d ->
              if Trace.enabled config.tracer then
                Trace.emit config.tracer
                  (Trace.Tx
                     {
                       node = me;
                       dst;
                       sender = d.Types.id.Msg_id.sender;
                       sn = d.Types.id.Msg_id.sn;
                       view_id = d.Types.view_id;
                     })
          | _ -> ());
          send ~dst (Proto wire));
      send_cons = (fun ~dst ~view_id msg -> send ~dst (Cons { view_id; msg }));
      suspects = (fun p -> match !hb_ref with Some hb -> Heartbeat.suspects hb p | None -> false);
      suspected =
        (fun () -> match !hb_ref with Some hb -> Heartbeat.suspected_set hb | None -> []);
      propose = None;
      backlog = (fun () -> 0);
      deliverable =
        (fun () ->
          match !t_ref with
          | Some t -> if Member.pending t.core > 0 then on_deliverable ()
          | None -> ());
      installed = (fun v -> with_t (fun t -> installed t v));
      excluded =
        (fun v ~rejoin ->
          Log.warn (fun m -> m "node %d excluded from %a" me View.pp v);
          if not rejoin then with_t stop);
      synced =
        (fun v app ->
          Log.info (fun m -> m "node %d synced into %a" me View.pp v);
          on_synced v app);
      parked = (fun () -> ());
      rejoin = (fun () -> with_t rejoin);
      lag =
        (fun p ->
          List.fold_left
            (fun acc (st : Tcp_mesh.peer_stat) ->
              if st.peer = p then (st.over_hard_s, st.pending) else acc)
            (0.0, 0) (Tcp_mesh.peer_stats mesh));
      send_digest = (fun ~dst ~view_id digest -> send ~dst (Digest { view_id; digest }));
      durable_lease =
        Option.map
          (fun w ~next_sn ~sync ->
            if next_sn > 0 then Wal.append w (Wal.Lease { next_sn });
            if sync then Wal.sync w)
          wal;
    }
  in
  (* The previous incarnation's streams died with it, so a node
     recovered from a non-fresh log cannot silently resume membership:
     it restarts as a joiner carrying its durable floors and sequence
     lease, and re-enters through the JOIN/SYNC handshake. *)
  let recovery =
    match recovered with
    | Some r when not r.Wal.fresh ->
        Some
          {
            Protocol.view_id = (match r.Wal.view with Some v -> v.View.id | None -> -1);
            floors = r.Wal.floors;
            next_sn = r.Wal.next_sn;
            tainted = r.Wal.tainted;
          }
    | _ ->
        (* Anchor a brand-new log so even a crash before the first view
           change recovers a view. *)
        (match wal with
        | Some w -> Wal.append_durable w (Wal.Install (View.initial ~members))
        | None -> ());
        None
  in
  let core =
    Member.create engine ~me ~peers:members
      ~clock:(fun () -> Loop.now loop)
      ~semantic:config.semantic ~tracer:config.tracer ?metrics:config.metrics ?recovery
      ?park_timeout:config.park_timeout
      ?divergence:
        (Option.map
           (fun period -> { Member.period; rounds = divergence_rounds; heal = true })
           config.divergence_period)
      ~laggard:config.slow_member ?stability_period:config.stability_period
      ~merge_spans:
        (match config.metrics with
        | None -> Metrics.Histogram.detached ()
        | Some reg -> Metrics.histogram reg ~labels:node_label "rt_merge_seconds")
      ~divergences:(counter "svs_divergence_detected_total")
      ~slow_reports:(counter "rt_slow_member_reports_total")
      host
  in
  Option.iter (Member.set_state_transfer core) state_transfer;
  Option.iter (Member.set_state_digest core) state_digest;
  let hb =
    Heartbeat.create engine config.heartbeat ~me ~peers:members ~send_heartbeat:(fun ~dst ->
        send ~dst Beat)
  in
  hb_ref := Some hb;
  let t =
    {
      loop;
      me;
      started_at;
      core;
      wal;
      mesh;
      hb;
      stopped = false;
      tracer = config.tracer;
      peers_ids = members;
      suspicions = counter "rt_suspicions_total";
    }
  in
  t_ref := Some t;
  Heartbeat.on_suspect hb (fun p ->
      Metrics.Counter.incr t.suspicions;
      if Trace.enabled t.tracer then
        Trace.emit t.tracer (Trace.Suspect { node = t.me; suspect = p });
      Member.on_suspicion core);
  Heartbeat.on_rescind hb (fun _ -> Member.on_suspicion core);
  (* This tick sends the member's floors once they rise, so stability
     trails delivery by a tick, not by [stability_period]. (A
     before-wait hook would run once per message on an open loop, and
     a STABLE round costs about 150 words.) *)
  ignore
    (Loop.every loop ~period:0.01 (fun () ->
         Member.stability_tick core;
         not t.stopped)
      : Loop.timer);
  (match wal with
  | None -> ()
  | Some w ->
      (* Group-commit tick: one fsync covers every append since the
         last — the member's lease extensions ride it, and it writes
         the latest delivery floor of each sender noted since the last
         sync. *)
      ignore
        (Loop.every loop ~period:0.05 (fun () ->
             Wal.sync w;
             Member.lease_committed core;
             not t.stopped)
          : Loop.timer));
  t

(* Also after an exclusion stopped the node: the mesh and the log are
   still open then. *)
let shutdown t =
  stop t;
  Tcp_mesh.close t.mesh;
  Option.iter Wal.close t.wal
