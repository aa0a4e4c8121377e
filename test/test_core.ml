(* Tests for svs_core: the deque, the Figure 1 protocol automaton, the
   trace checker and the assembled Group stack. *)

module Dq = Svs_core.Dq
module View = Svs_core.View
module Types = Svs_core.Types
module Protocol = Svs_core.Protocol
module Checker = Svs_core.Checker
module Group = Svs_core.Group
module Member = Svs_core.Member
module Msg_id = Svs_obs.Msg_id
module Annotation = Svs_obs.Annotation
module Bitvec = Svs_obs.Bitvec
module Engine = Svs_sim.Engine
module Latency = Svs_net.Latency
module Rng = Svs_sim.Rng

(* ------------------------------------------------------------------ *)
(* Dq                                                                  *)
(* ------------------------------------------------------------------ *)

let test_dq_fifo () =
  let d = Dq.create () in
  for i = 1 to 100 do
    Dq.push_back d i
  done;
  Alcotest.(check int) "length" 100 (Dq.length d);
  Alcotest.(check (option int)) "peek" (Some 1) (Dq.peek_front d);
  let drained = List.init 100 (fun _ -> Option.get (Dq.pop_front d)) in
  Alcotest.(check (list int)) "FIFO" (List.init 100 (fun i -> i + 1)) drained

let test_dq_push_front () =
  let d = Dq.create () in
  Dq.push_back d 2;
  Dq.push_front d 1;
  Dq.push_back d 3;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Dq.to_list d)

let test_dq_filter_in_place () =
  let d = Dq.create () in
  for i = 1 to 10 do
    Dq.push_back d i
  done;
  let removed = Dq.filter_in_place (fun x -> x mod 2 = 0) d in
  Alcotest.(check int) "removed" 5 removed;
  Alcotest.(check (list int)) "kept order" [ 2; 4; 6; 8; 10 ] (Dq.to_list d)

let test_dq_wraparound () =
  let d = Dq.create () in
  (* Force head to wrap: push/pop repeatedly beyond initial capacity. *)
  for round = 0 to 20 do
    for i = 0 to 9 do
      Dq.push_back d ((round * 10) + i)
    done;
    for _ = 0 to 7 do
      ignore (Dq.pop_front d)
    done
  done;
  let l = Dq.to_list d in
  Alcotest.(check int) "kept 2 per round" (2 * 21) (List.length l);
  Alcotest.(check bool) "still sorted" true (List.sort compare l = l)

let dq_matches_list_model =
  QCheck.Test.make ~name:"dq behaves like a list queue" ~count:300
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let d = Dq.create () in
      let model = ref [] in
      List.for_all
        (fun (push, x) ->
          if push then begin
            Dq.push_back d x;
            model := !model @ [ x ];
            true
          end
          else
            let got = Dq.pop_front d in
            let expect =
              match !model with
              | [] -> None
              | y :: rest ->
                  model := rest;
                  Some y
            in
            got = expect)
        ops
      && Dq.to_list d = !model)

let test_dq_handle_remove () =
  let d = Dq.create () in
  let hs = List.init 5 (fun i -> Dq.push_back_h d (i + 1)) in
  let h3 = List.nth hs 2 in
  Alcotest.(check bool) "removed" true (Dq.remove d h3);
  Alcotest.(check (list int)) "order kept" [ 1; 2; 4; 5 ] (Dq.to_list d);
  Alcotest.(check bool) "second remove is a no-op" false (Dq.remove d h3);
  Alcotest.(check int) "length" 4 (Dq.length d);
  Alcotest.(check (option int)) "removed handle reads None" None (Dq.handle_get h3);
  Alcotest.(check (option int)) "live handle reads value" (Some 4)
    (Dq.handle_get (List.nth hs 3));
  ignore (Dq.remove d (List.nth hs 0) : bool);
  Alcotest.(check (option int)) "pop skips tombstones" (Some 2) (Dq.pop_front d)

let test_dq_handle_survives_churn () =
  (* Handles must stay valid across growth, wraparound and the lazy
     compactions triggered by accumulated tombstones. *)
  let d = Dq.create () in
  let handles = Hashtbl.create 64 in
  for i = 0 to 199 do
    Hashtbl.replace handles i (Dq.push_back_h d i);
    if i mod 3 = 2 then ignore (Dq.pop_front d : int option)
  done;
  let survivors = Dq.to_list d in
  let evens, odds = List.partition (fun x -> x mod 2 = 0) survivors in
  List.iter
    (fun x ->
      Alcotest.(check bool) "live remove succeeds" true
        (Dq.remove d (Hashtbl.find handles x)))
    evens;
  Alcotest.(check (list int)) "odd survivors in order" odds (Dq.to_list d);
  Alcotest.(check int) "length tracks removals" (List.length odds) (Dq.length d);
  Alcotest.(check bool) "popped entry's handle is inert" false
    (Dq.remove d (Hashtbl.find handles 0))

let test_dq_clear_detaches_handles () =
  let d = Dq.create () in
  let h = Dq.push_back_h d 1 in
  Dq.push_back d 2;
  Dq.clear d;
  Alcotest.(check int) "empty" 0 (Dq.length d);
  Alcotest.(check bool) "stale handle inert" false (Dq.remove d h);
  Alcotest.(check (option int)) "stale handle reads None" None (Dq.handle_get h);
  Dq.push_back d 3;
  Alcotest.(check (list int)) "queue reusable after clear" [ 3 ] (Dq.to_list d)

(* ------------------------------------------------------------------ *)
(* Protocol unit tests (manual synchronous router)                      *)
(* ------------------------------------------------------------------ *)

type proc = { pid : int; p : int Protocol.t }

(* Route all pending Send outputs synchronously until quiescence;
   returns the non-Send outputs in occurrence order. *)
let route (procs : proc list) =
  let acc = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun { pid; p } ->
        List.iter
          (fun o ->
            progress := true;
            match o with
            | Types.Send { dst; wire } -> (
                match List.find_opt (fun pr -> pr.pid = dst) procs with
                | Some target -> Protocol.receive target.p ~src:pid wire
                | None -> ())
            | other -> acc := (pid, other) :: !acc)
          (Protocol.take_outputs p))
      procs
  done;
  List.rev !acc

let make_procs ?(semantic = true) ?(suspected = fun _ -> false) n =
  let members = List.init n Fun.id in
  let view = View.initial ~members in
  List.map
    (fun pid ->
      { pid; p = Protocol.create ~me:pid ~initial_view:view ~semantic ~suspects:suspected () })
    members

let drain_data p =
  let rec go acc =
    match Protocol.deliver p with
    | None -> List.rev acc
    | Some (Types.Data d) -> go (d.Types.payload :: acc)
    | Some (Types.View_change _) -> go acc
  in
  go []

let tag_ann item = Annotation.Tag item

let test_proto_multicast_reaches_all () =
  let procs = make_procs 3 in
  let p0 = (List.hd procs).p in
  (match Protocol.multicast p0 41 with Ok _ -> () | Error _ -> Alcotest.fail "multicast");
  (match Protocol.multicast p0 42 with Ok _ -> () | Error _ -> Alcotest.fail "multicast");
  ignore (route procs);
  List.iter
    (fun { pid; p } ->
      Alcotest.(check (list int)) (Printf.sprintf "proc %d FIFO delivery" pid) [ 41; 42 ]
        (drain_data p))
    procs

let test_proto_purge_in_queue () =
  let procs = make_procs 2 in
  let p0 = (List.hd procs).p in
  (* Three updates of the same item: only the last survives in queues
     that have not been consumed. *)
  List.iter (fun v -> ignore (Protocol.multicast p0 ~ann:(tag_ann 7) v)) [ 1; 2; 3 ];
  ignore (route procs);
  List.iter
    (fun { pid; p } ->
      Alcotest.(check (list int)) (Printf.sprintf "proc %d purged to last" pid) [ 3 ]
        (drain_data p);
      Alcotest.(check int) (Printf.sprintf "proc %d purge count" pid) 2 (Protocol.purged_count p))
    procs

let test_proto_fast_consumer_sees_all () =
  let procs = make_procs 2 in
  let p0 = (List.hd procs).p
  and p1 = (List.nth procs 1).p in
  ignore (Protocol.multicast p0 ~ann:(tag_ann 7) 1);
  ignore (route procs);
  Alcotest.(check (list int)) "fast consumer got first" [ 1 ] (drain_data p1);
  ignore (Protocol.multicast p0 ~ann:(tag_ann 7) 2);
  ignore (route procs);
  Alcotest.(check (list int)) "and the second" [ 2 ] (drain_data p1)

let test_proto_no_purge_when_vs () =
  let procs = make_procs ~semantic:false 2 in
  let p0 = (List.hd procs).p in
  List.iter (fun v -> ignore (Protocol.multicast p0 ~ann:(tag_ann 7) v)) [ 1; 2; 3 ];
  ignore (route procs);
  let p1 = (List.nth procs 1).p in
  Alcotest.(check (list int)) "plain VS keeps everything" [ 1; 2; 3 ] (drain_data p1);
  Alcotest.(check int) "no purging" 0 (Protocol.purged_count p1)

let decide_first procs outs =
  (* Feed the first Propose decision to every process. *)
  match
    List.find_map
      (function _, Types.Propose { view_id; proposal } -> Some (view_id, proposal) | _ -> None)
      outs
  with
  | None -> Alcotest.fail "no proposal emitted"
  | Some (view_id, proposal) ->
      List.iter (fun { p; _ } -> Protocol.decided p ~view_id proposal) procs;
      route procs

let test_proto_view_change_basic () =
  let procs = make_procs 3 in
  let p0 = (List.hd procs).p in
  ignore (Protocol.multicast p0 10);
  ignore (route procs);
  Protocol.trigger_view_change p0 ~leave:[ 2 ] ();
  let outs = route procs in
  (* All three (unsuspected) must have sent PREDs, then proposals. *)
  let installs = decide_first procs outs in
  let installed =
    List.filter_map (function pid, Types.Installed v -> Some (pid, v) | _ -> None) installs
  in
  Alcotest.(check int) "two survivors installed" 2 (List.length installed);
  List.iter
    (fun (_, v) -> Alcotest.(check (list int)) "membership without 2" [ 0; 1 ] v.View.members)
    installed;
  let excluded =
    List.filter_map (function pid, Types.Excluded _ -> Some pid | _ -> None) installs
  in
  Alcotest.(check (list int)) "process 2 excluded" [ 2 ] excluded;
  (* Survivors see the data then the view marker. *)
  let p1 = (List.nth procs 1).p in
  (match Protocol.deliver p1 with
  | Some (Types.Data d) -> Alcotest.(check int) "data first" 10 d.Types.payload
  | _ -> Alcotest.fail "expected data");
  (match Protocol.deliver p1 with
  | Some (Types.View_change v) -> Alcotest.(check int) "then view 1" 1 v.View.id
  | _ -> Alcotest.fail "expected view marker")

let test_proto_multicast_blocked_during_view_change () =
  let procs = make_procs 3 in
  let p0 = (List.hd procs).p in
  Protocol.trigger_view_change p0 ~leave:[] ();
  (* Do not route: p0 is blocked now. *)
  (match Protocol.multicast p0 99 with
  | Error `Blocked -> ()
  | Ok _ | Error `Not_member -> Alcotest.fail "expected Blocked");
  Alcotest.(check bool) "blocked flag" true (Protocol.blocked p0)

let test_proto_view_change_flushes_unconsumed () =
  (* A slow process that consumed nothing must still deliver the agreed
     messages before the view marker. *)
  let procs = make_procs 2 in
  let p0 = (List.hd procs).p
  and p1 = (List.nth procs 1).p in
  List.iter (fun v -> ignore (Protocol.multicast p0 v)) [ 1; 2; 3 ];
  ignore (route procs);
  Protocol.trigger_view_change p0 ~leave:[] ();
  let outs = route procs in
  ignore (decide_first procs outs);
  Alcotest.(check (list int)) "all flushed before marker" [ 1; 2; 3 ] (drain_data p1)

let test_proto_svs_pred_injection () =
  (* p1 never received m (we bypass routing selectively): after the view
     change, the agreed pred set must inject it. *)
  let procs = make_procs 2 in
  let p0 = (List.hd procs).p
  and p1 = (List.nth procs 1).p in
  (* Multicast but deliberately drop the Send to p1. *)
  (match Protocol.multicast p0 77 with Ok _ -> () | Error _ -> Alcotest.fail "mc");
  let outs0 = Protocol.take_outputs p0 in
  Alcotest.(check int) "one send" 1
    (List.length (List.filter (function Types.Send _ -> true | _ -> false) outs0));
  (* Now run a view change; p0's PRED contains 77. *)
  Protocol.trigger_view_change p0 ~leave:[] ();
  let outs = route procs in
  ignore (decide_first procs outs);
  Alcotest.(check (list int)) "injected from pred set" [ 77 ] (drain_data p1)

let test_proto_stale_data_dropped_after_view () =
  let procs = make_procs 2 in
  let p0 = (List.hd procs).p
  and p1 = (List.nth procs 1).p in
  (* Craft a data message tagged with view 0 and deliver it after the
     group moved to view 1: it must be ignored (its fate was settled by
     the agreed pred set). *)
  Protocol.trigger_view_change p0 ~leave:[] ();
  let outs = route procs in
  ignore (decide_first procs outs);
  Alcotest.(check int) "now in view 1" 1 (Protocol.current_view p1).View.id;
  let stale =
    Types.Wdata
      {
        Types.id = Msg_id.make ~sender:0 ~sn:999;
        view_id = 0;
        payload = 5;
        ann = Annotation.Unrelated;
      }
  in
  Protocol.receive p1 ~src:0 stale;
  ignore (route procs);
  Alcotest.(check (list int)) "stale dropped"
    [] (drain_data p1 |> List.filter (fun v -> v = 5))

let test_proto_future_view_data_stashed () =
  let procs = make_procs 2 in
  let p1 = (List.nth procs 1).p in
  (* A message from the future view arrives before p1 has installed it:
     it must be stashed, then delivered after installation. *)
  let future =
    Types.Wdata
      {
        Types.id = Msg_id.make ~sender:0 ~sn:50;
        view_id = 1;
        payload = 123;
        ann = Annotation.Unrelated;
      }
  in
  Protocol.receive p1 ~src:0 future;
  Alcotest.(check (list int)) "not delivered yet" [] (drain_data p1);
  let p0 = (List.hd procs).p in
  Protocol.trigger_view_change p0 ~leave:[] ();
  let outs = route procs in
  ignore (decide_first procs outs);
  Alcotest.(check (list int)) "stash replayed after install" [ 123 ] (drain_data p1)

let test_proto_not_member_multicast () =
  let members = [ 0; 1 ] in
  let view = View.initial ~members in
  let outsider =
    Protocol.create ~me:7 ~initial_view:view ~semantic:true ~suspects:(fun _ -> false) ()
  in
  match Protocol.multicast outsider 1 with
  | Error `Not_member -> ()
  | Ok _ | Error `Blocked -> Alcotest.fail "expected Not_member"

let test_proto_suspected_member_skipped_in_t7 () =
  (* With process 2 suspected and silent, the others can still complete
     the view change (t7 waits only for unsuspected members). *)
  let suspected = ref (fun _ -> false) in
  let procs = make_procs ~suspected:(fun p -> !suspected p) 3 in
  let alive = List.filter (fun pr -> pr.pid <> 2) procs in
  suspected := (fun p -> p = 2);
  let p0 = (List.hd procs).p in
  ignore (Protocol.multicast p0 5);
  ignore (route alive);
  Protocol.trigger_view_change p0 ~leave:[ 2 ] ();
  let outs = route alive in
  let installs = decide_first alive outs in
  let installed = List.filter (function _, Types.Installed _ -> true | _ -> false) installs in
  Alcotest.(check int) "both survivors installed" 2 (List.length installed)

let test_proto_local_pred_tracking () =
  (* accepted_in_view = delivered ++ queued, both restricted to the
     current view — exactly what t5 would put in the PRED message. *)
  let procs = make_procs 2 in
  let p0 = (List.hd procs).p
  and p1 = (List.nth procs 1).p in
  List.iter (fun v -> ignore (Protocol.multicast p0 v)) [ 1; 2; 3 ];
  ignore (route procs);
  (* p1 consumes one message; the other two stay queued. *)
  (match Protocol.deliver p1 with
  | Some (Types.Data d) -> Alcotest.(check int) "consumed first" 1 d.Types.payload
  | _ -> Alcotest.fail "expected data");
  let pred = List.map (fun d -> d.Types.payload) (Protocol.accepted_in_view p1) in
  Alcotest.(check (list int)) "delivered ++ queued" [ 1; 2; 3 ] pred

(* A delivery evicts the delivered messages it covers from the PRED
   bookkeeping: a Tag lineage keeps its newest message, an Enum drops
   what it names, a Kenum the distances it sets. Unannotated messages
   stay, and with purging off nothing is evicted. *)
let test_proto_evicts_covered () =
  let kenum ds =
    let bm = Bitvec.create ~k:4 in
    List.iter (Bitvec.set bm) ds;
    Annotation.Kenum bm
  in
  let run semantic =
    let p =
      Protocol.create ~me:0 ~initial_view:(View.initial ~members:[ 0 ]) ~semantic
        ~suspects:(fun _ -> false) ()
    in
    List.iter
      (fun (v, ann) ->
        ignore (Protocol.multicast p ~ann v);
        ignore (Protocol.deliver p))
      [
        (0, Annotation.Unrelated);
        (1, Annotation.Tag 1);
        (2, Annotation.Tag 2);
        (3, Annotation.Tag 1);
        (4, Annotation.Enum [ Msg_id.make ~sender:0 ~sn:2 ]);
        (5, Annotation.Unrelated);
        (6, kenum [ 1; 3 ]);
      ];
    (p, List.map (fun d -> d.Types.payload) (Protocol.accepted_in_view p))
  in
  let p, kept = run true in
  Alcotest.(check (list int)) "uncovered kept, in order" [ 0; 4; 6 ] kept;
  Alcotest.(check int) "four evicted" 4 (Protocol.evicted p);
  Alcotest.(check int) "peak" 4 (Protocol.retained_peak p);
  let p, kept = run false in
  Alcotest.(check (list int)) "plain VS keeps all" [ 0; 1; 2; 3; 4; 5; 6 ] kept;
  Alcotest.(check int) "none evicted" 0 (Protocol.evicted p)

let test_proto_voluntary_leave () =
  (* A member can ask to leave (§3.2: "processes that voluntarily want
     to leave"): it initiates a view change naming itself. *)
  let procs = make_procs 3 in
  let p2 = (List.nth procs 2).p in
  Protocol.trigger_view_change p2 ~leave:[ 2 ] ();
  let outs = route procs in
  let installs = decide_first procs outs in
  Alcotest.(check (list int)) "self excluded"
    [ 2 ]
    (List.filter_map (function pid, Types.Excluded _ -> Some pid | _ -> None) installs);
  Alcotest.(check (list int)) "survivors" [ 0; 1 ]
    (Protocol.current_view (List.hd procs).p).View.members

let test_proto_deterministic () =
  (* Identical input sequences produce identical output sequences. *)
  let run () =
    let procs = make_procs 3 in
    let p0 = (List.hd procs).p in
    List.iter (fun v -> ignore (Protocol.multicast p0 ~ann:(tag_ann (v mod 2)) v)) [ 1; 2; 3; 4 ];
    ignore (route procs);
    Protocol.trigger_view_change p0 ~leave:[ 2 ] ();
    let outs = route procs in
    ignore (decide_first procs outs);
    List.map (fun { p; _ } -> drain_data p) procs
  in
  Alcotest.(check bool) "two runs agree" true (run () = run ())

(* Differential test: the protocol's incremental purge must leave the
   same queue contents as a naive fixpoint purge over the full set. *)
let purge_matches_fixpoint_model =
  QCheck.Test.make ~name:"incremental purge matches fixpoint model" ~count:200
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 40) (pair (int_bound 4) (int_bound 2))))
    (fun (seed, sends) ->
      ignore seed;
      (* Single sender (0) multicasts tagged messages; receiver 1 never
         consumes, so its queue purges incrementally. *)
      let procs = make_procs 2 in
      let p0 = (List.hd procs).p in
      let annotated =
        List.mapi (fun i (tag, _) -> (i, tag)) sends
      in
      List.iter (fun (i, tag) -> ignore (Protocol.multicast p0 ~ann:(tag_ann tag) i)) annotated;
      ignore (route procs);
      let p1 = (List.nth procs 1).p in
      let queue = drain_data p1 in
      (* Model: keep message i iff no later message with the same tag. *)
      let expected =
        List.filter
          (fun (i, tag) ->
            not (List.exists (fun (j, tag') -> j > i && tag' = tag) annotated))
          annotated
        |> List.map fst
      in
      queue = expected)

(* Eviction against a pairwise model: process 0 receives a random
   annotated stream from senders 1 and 2 (Tag, Enum naming earlier
   messages of either sender, Kenum within k = 8, Unrelated) and
   delivers at random points. What stays retained is exactly what it
   delivered minus what a later delivery obsoletes — long enough
   streams for the store to compact and rebuild its index. *)
let eviction_matches_pairwise_model =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 300)
        (tup4 (int_range 1 2) (int_bound 3) (list_size (int_bound 3) (int_bound 40)) bool))
  in
  QCheck.Test.make ~name:"eviction matches the pairwise model" ~count:200 (QCheck.make gen)
    (fun steps ->
      let view = View.initial ~members:[ 0; 1; 2 ] in
      let p = Protocol.create ~me:0 ~initial_view:view ~suspects:(fun _ -> false) () in
      let next = [| 0; 0; 0 |] and sent = ref [] and delivered = ref [] in
      let rec drain () =
        match Protocol.deliver p with
        | Some (Types.Data d) ->
            delivered := d :: !delivered;
            drain ()
        | Some (Types.View_change _) -> drain ()
        | None -> ()
      in
      List.iter
        (fun (sender, kind, picks, consume) ->
          let sn = next.(sender) in
          next.(sender) <- sn + 1;
          let ann =
            match kind with
            | 0 -> Annotation.Unrelated
            | 1 -> Annotation.Tag (List.length picks)
            | 2 ->
                let earlier = List.rev !sent in
                Annotation.Enum
                  (List.filter_map
                     (fun i -> Option.map (fun d -> d.Types.id) (List.nth_opt earlier i))
                     picks)
            | _ ->
                let bm = Bitvec.create ~k:8 in
                List.iter (fun i -> Bitvec.set bm ((i mod 8) + 1)) picks;
                Annotation.Kenum bm
          in
          let d = { Types.id = Msg_id.make ~sender ~sn; view_id = 0; payload = 0; ann } in
          sent := d :: !sent;
          Protocol.receive p ~src:sender (Types.Wdata d);
          if consume then drain ())
        steps;
      drain ();
      let order = List.rev !delivered in
      let rec model = function
        | [] -> []
        | d :: later ->
            if List.exists (fun e -> Types.obsoletes d e) later then model later
            else d :: model later
      in
      List.map (fun d -> d.Types.id) (Protocol.accepted_in_view p)
      = List.map (fun d -> d.Types.id) (model order))

(* Cross-sender obsolescence through enumeration annotations: member 1
   acknowledges member 0's readings with messages that obsolete them. *)
let test_proto_cross_sender_enum () =
  let procs = make_procs 2 in
  let p0 = (List.hd procs).p
  and p1 = (List.nth procs 1).p in
  let d0 =
    match Protocol.multicast p0 100 with Ok d -> d | Error _ -> Alcotest.fail "mc"
  in
  ignore (route procs);
  (* p1 consumed p0's message and replies with a digest that makes the
     original obsolete. *)
  Alcotest.(check (list int)) "p1 got it" [ 100 ] (drain_data p1);
  ignore (Protocol.multicast p1 ~ann:(Annotation.Enum [ d0.Types.id ]) 200);
  ignore (route procs);
  (* p0 never consumed its own copy of 100: the digest purged it. *)
  Alcotest.(check (list int)) "original purged at p0 by the digest" [ 200 ] (drain_data p0)

(* ------------------------------------------------------------------ *)
(* Protocol hardening                                                   *)
(* ------------------------------------------------------------------ *)

let test_proto_duplicate_decision_ignored () =
  let procs = make_procs 2 in
  let p0 = (List.hd procs).p in
  Protocol.trigger_view_change p0 ~leave:[] ();
  let outs = route procs in
  ignore (decide_first procs outs);
  let view_after = Protocol.current_view p0 in
  (* Replay the stale decision: it must be ignored. *)
  (match
     List.find_map
       (function _, Types.Propose { view_id; proposal } -> Some (view_id, proposal) | _ -> None)
       outs
   with
  | Some (view_id, proposal) -> Protocol.decided p0 ~view_id proposal
  | None -> Alcotest.fail "no proposal");
  ignore (route procs);
  Alcotest.(check bool) "view unchanged" true (View.equal view_after (Protocol.current_view p0))

let test_proto_receive_when_dead () =
  let procs = make_procs 2 in
  let p0 = (List.hd procs).p in
  Protocol.trigger_view_change p0 ~leave:[ 1 ] ();
  let outs = route procs in
  (match
     List.find_map
       (function _, Types.Propose { view_id; proposal } -> Some (view_id, proposal) | _ -> None)
       outs
   with
  | Some (view_id, proposal) -> List.iter (fun { p; _ } -> Protocol.decided p ~view_id proposal) procs
  | None -> Alcotest.fail "no proposal");
  let p1 = (List.nth procs 1).p in
  Alcotest.(check bool) "p1 excluded" false (Protocol.alive p1);
  (* Feeding traffic to a dead protocol must be inert. *)
  Protocol.receive p1 ~src:0
    (Types.Wdata
       { Types.id = Msg_id.make ~sender:0 ~sn:99; view_id = 1; payload = 1; ann = Annotation.Unrelated });
  Alcotest.(check (list int)) "no deliveries" [] (drain_data p1);
  match Protocol.multicast p1 5 with
  | Error `Not_member -> ()
  | Ok _ | Error `Blocked -> Alcotest.fail "dead protocol accepted a multicast"

let test_proto_trigger_while_blocked_ignored () =
  let procs = make_procs 3 in
  let p0 = (List.hd procs).p in
  Protocol.trigger_view_change p0 ~leave:[ 2 ] ();
  (* A second trigger while blocked must not restart the exchange. *)
  Protocol.trigger_view_change p0 ~leave:[ 1 ] ();
  let outs = route procs in
  ignore (decide_first procs outs);
  (* The first leave list won: member 1 is still in. *)
  Alcotest.(check (list int)) "membership from first trigger" [ 0; 1 ]
    (Protocol.current_view p0).View.members

(* ------------------------------------------------------------------ *)
(* Checker unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let meta ?(ann = Annotation.Unrelated) ?(view = 0) sender sn =
  { Checker.id = Msg_id.make ~sender ~sn; ann; view_id = view }

let test_checker_accepts_clean_trace () =
  let c = Checker.create () in
  let v0 = View.initial ~members:[ 0; 1 ] in
  Checker.record_install c ~p:0 v0;
  Checker.record_install c ~p:1 v0;
  let m = meta 0 0 in
  Checker.record_multicast c m;
  Checker.record_delivery c ~p:0 m;
  Checker.record_delivery c ~p:1 m;
  Alcotest.(check int) "no violations" 0 (List.length (Checker.verify c))

let test_checker_detects_creation () =
  let c = Checker.create () in
  Checker.record_install c ~p:0 (View.initial ~members:[ 0 ]);
  Checker.record_delivery c ~p:0 (meta 0 0);
  Alcotest.(check bool) "creation detected" true (Checker.verify c <> [])

let test_checker_detects_duplication () =
  let c = Checker.create () in
  Checker.record_install c ~p:0 (View.initial ~members:[ 0 ]);
  let m = meta 0 0 in
  Checker.record_multicast c m;
  Checker.record_delivery c ~p:0 m;
  Checker.record_delivery c ~p:0 m;
  Alcotest.(check bool) "duplication detected" true (Checker.verify c <> [])

let test_checker_detects_fifo_violation () =
  let c = Checker.create () in
  Checker.record_install c ~p:0 (View.initial ~members:[ 0 ]);
  let m0 = meta 0 0 and m1 = meta 0 1 in
  Checker.record_multicast c m0;
  Checker.record_multicast c m1;
  Checker.record_delivery c ~p:0 m1;
  Checker.record_delivery c ~p:0 m0;
  Alcotest.(check bool) "fifo violation detected" true (Checker.verify c <> [])

let test_checker_detects_svs_hole () =
  (* p delivers m in view 0 and both install view 1, but q never covers
     m: SVS violation. *)
  let c = Checker.create () in
  let v0 = View.initial ~members:[ 0; 1 ] in
  let v1 = View.make ~id:1 ~members:[ 0; 1 ] in
  List.iter (fun p -> Checker.record_install c ~p v0) [ 0; 1 ];
  let m = meta 0 0 in
  Checker.record_multicast c m;
  Checker.record_delivery c ~p:0 m;
  List.iter (fun p -> Checker.record_install c ~p v1) [ 0; 1 ];
  Alcotest.(check bool) "hole detected" true (Checker.verify c <> [])

let test_checker_accepts_cover_instead () =
  (* q skips m but delivers a message that obsoletes it: legal SVS. *)
  let c = Checker.create () in
  let v0 = View.initial ~members:[ 0; 1 ] in
  let v1 = View.make ~id:1 ~members:[ 0; 1 ] in
  List.iter (fun p -> Checker.record_install c ~p v0) [ 0; 1 ];
  let m0 = meta ~ann:(Annotation.Tag 3) 0 0 in
  let m1 = meta ~ann:(Annotation.Tag 3) 0 1 in
  Checker.record_multicast c m0;
  Checker.record_multicast c m1;
  (* p delivers both; q only the cover. *)
  Checker.record_delivery c ~p:0 m0;
  Checker.record_delivery c ~p:0 m1;
  Checker.record_delivery c ~p:1 m1;
  List.iter (fun p -> Checker.record_install c ~p v1) [ 0; 1 ];
  Alcotest.(check (list string)) "cover satisfies SVS" []
    (List.map Checker.violation_to_string (Checker.verify c))

let test_checker_transitive_cover () =
  (* q delivers only the end of a chain m0 ≺ m1 ≺ m2: still legal. *)
  let c = Checker.create () in
  let v0 = View.initial ~members:[ 0; 1 ] in
  let v1 = View.make ~id:1 ~members:[ 0; 1 ] in
  List.iter (fun p -> Checker.record_install c ~p v0) [ 0; 1 ];
  let bm1 = Bitvec.create ~k:4 in
  Bitvec.set bm1 1;
  (* m2's bitmap only names m1 (distance 1) — NOT m0: the closure must
     still accept m2 as a cover of m0. *)
  let m0 = meta 0 0 in
  let m1 = { (meta 0 1) with Checker.ann = Annotation.Kenum bm1 } in
  let bm2 = Bitvec.create ~k:4 in
  Bitvec.set bm2 1;
  let m2 = { (meta 0 2) with Checker.ann = Annotation.Kenum bm2 } in
  List.iter (Checker.record_multicast c) [ m0; m1; m2 ];
  List.iter (Checker.record_delivery c ~p:0) [ m0; m1; m2 ];
  Checker.record_delivery c ~p:1 m2;
  List.iter (fun p -> Checker.record_install c ~p v1) [ 0; 1 ];
  Alcotest.(check (list string)) "closure covers" []
    (List.map Checker.violation_to_string (Checker.verify c))

let test_checker_strict_vs_flags_purge () =
  let c = Checker.create () in
  let v0 = View.initial ~members:[ 0; 1 ] in
  let v1 = View.make ~id:1 ~members:[ 0; 1 ] in
  List.iter (fun p -> Checker.record_install c ~p v0) [ 0; 1 ];
  let m0 = meta ~ann:(Annotation.Tag 3) 0 0 in
  let m1 = meta ~ann:(Annotation.Tag 3) 0 1 in
  Checker.record_multicast c m0;
  Checker.record_multicast c m1;
  Checker.record_delivery c ~p:0 m0;
  Checker.record_delivery c ~p:0 m1;
  Checker.record_delivery c ~p:1 m1;
  List.iter (fun p -> Checker.record_install c ~p v1) [ 0; 1 ];
  Alcotest.(check bool) "SVS ok" true (Checker.verify c = []);
  Alcotest.(check bool) "strict VS flags the omission" true (Checker.verify_strict_vs c <> [])

(* A crash-rejoin shows up as a view-id gap in the rejoiner's log.  The
   pairwise clauses (SVS, FIFO-SR ii, strict VS) must not quantify
   across the gap: the survivor's deliveries in the views the rejoiner
   missed are not owed to the dead incarnation. *)
let test_checker_incarnation_gap () =
  let c = Checker.create () in
  let v0 = View.initial ~members:[ 0; 1 ] in
  let v1 = View.make ~id:1 ~members:[ 0 ] in
  let v2 = View.make ~id:2 ~members:[ 0; 1 ] in
  List.iter (fun p -> Checker.record_install c ~p v0) [ 0; 1 ];
  (* 1 crashes; 0 excludes it and delivers m alone in v1. *)
  Checker.record_install c ~p:0 v1;
  let m = meta ~view:1 0 0 in
  Checker.record_multicast c m;
  Checker.record_delivery c ~p:0 m;
  (* 1 rejoins at v2: its log jumps v0 -> v2 (incarnation gap). *)
  Checker.record_install c ~p:0 v2;
  Checker.record_install c ~p:1 v2;
  Alcotest.(check (list string)) "gap not quantified across" []
    (List.map Checker.violation_to_string (Checker.verify c));
  (* Same execution in strict-VS terms must also hold: the missed
     delivery sits between non-consecutive ids of 1's log. *)
  Alcotest.(check (list string)) "strict VS also skips the gap" []
    (List.map Checker.violation_to_string (Checker.verify_strict_vs c))

(* Park -> merge convergence: check_converged binds every survivor to
   the final primary view.  A parked minority member that never caught
   up is flagged; once it installs the final view the complaint goes
   away. *)
let test_checker_park_merge_convergence () =
  let c = Checker.create () in
  let v0 = View.initial ~members:[ 0; 1; 2 ] in
  let v1 = View.make ~id:1 ~members:[ 0; 1 ] in
  List.iter (fun p -> Checker.record_install c ~p v0) [ 0; 1; 2 ];
  (* Partition: majority {0,1} moves on, 2 parks (installs nothing). *)
  List.iter (fun p -> Checker.record_install c ~p v1) [ 0; 1 ];
  Alcotest.(check bool) "no safety violation while parked" true
    (Checker.verify c = []);
  (match Checker.check_converged c ~survivors:[ 0; 1; 2 ] with
  | [ Checker.Not_converged { p = 2; last_view_id = 0; final_view_id = 1 } ] ->
      ()
  | other ->
      Alcotest.failf "expected parked 2 flagged, got [%s]"
        (String.concat "; " (List.map Checker.violation_to_string other)));
  (* Heal: 2 merges back by installing the final primary view. *)
  let v2 = View.make ~id:2 ~members:[ 0; 1; 2 ] in
  List.iter (fun p -> Checker.record_install c ~p v2) [ 0; 1; 2 ];
  Alcotest.(check (list string)) "merge converges everyone" []
    (List.map Checker.violation_to_string
       (Checker.check_converged c ~survivors:[ 0; 1; 2 ]))

(* With an empty relation (every annotation Unrelated) SVS *is* VS:
   verify and verify_strict_vs must agree, on clean and broken logs
   alike (the paper's reduction claim, checked at the oracle level). *)
let test_checker_strict_vs_equals_verify_on_empty_relation () =
  let clean = Checker.create () in
  let v0 = View.initial ~members:[ 0; 1 ] in
  let v1 = View.make ~id:1 ~members:[ 0; 1 ] in
  List.iter (fun p -> Checker.record_install clean ~p v0) [ 0; 1 ];
  let m0 = meta 0 0 in
  Checker.record_multicast clean m0;
  Checker.record_delivery clean ~p:0 m0;
  Checker.record_delivery clean ~p:1 m0;
  List.iter (fun p -> Checker.record_install clean ~p v1) [ 0; 1 ];
  Alcotest.(check (list string)) "clean: both empty" []
    (List.map Checker.violation_to_string (Checker.verify_strict_vs clean));
  let broken = Checker.create () in
  List.iter (fun p -> Checker.record_install broken ~p v0) [ 0; 1 ];
  let m1 = meta 0 1 in
  Checker.record_multicast broken m1;
  Checker.record_delivery broken ~p:0 m1;
  (* 1 never delivers m1 yet installs v1: a hole with no possible
     cover, so the SVS clause itself must fire — not just strict VS. *)
  List.iter (fun p -> Checker.record_install broken ~p v1) [ 0; 1 ];
  Alcotest.(check bool) "broken: SVS clause fires" true
    (Checker.verify broken <> []);
  Alcotest.(check bool) "broken: strict VS fires too" true
    (Checker.verify_strict_vs broken <> [])

(* ------------------------------------------------------------------ *)
(* Group integration                                                    *)
(* ------------------------------------------------------------------ *)

let drain_everyone cluster =
  List.iter (fun m -> ignore (Group.deliver_all m)) (Group.members cluster)

let check_no_violations ?(strict = false) cluster =
  let c = Group.checker cluster in
  let violations = if strict then Checker.verify_strict_vs c else Checker.verify c in
  Alcotest.(check (list string)) "checker clean" []
    (List.map Checker.violation_to_string violations)

let test_group_basic_multicast () =
  let e = Engine.create ~seed:1 () in
  let cluster =
    Group.create_cluster e ~members:[ 0; 1; 2; 3 ]
      ~latency:(Latency.Uniform { lo = 0.001; hi = 0.01 })
      ()
  in
  let m0 = Group.member cluster 0 in
  for i = 1 to 20 do
    match Group.multicast m0 i with Ok _ -> () | Error _ -> Alcotest.fail "multicast failed"
  done;
  Engine.run e;
  List.iter
    (fun m ->
      let data =
        List.filter_map
          (function Types.Data d -> Some d.Types.payload | Types.View_change _ -> None)
          (Group.deliver_all m)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "member %d got all in order" (Group.id m))
        (List.init 20 (fun i -> i + 1))
        data)
    (Group.members cluster);
  check_no_violations ~strict:true cluster

let test_group_crash_triggers_view_change () =
  let e = Engine.create ~seed:2 () in
  let cluster =
    Group.create_cluster e ~members:[ 0; 1; 2; 3 ]
      ~latency:(Latency.Uniform { lo = 0.001; hi = 0.01 })
      ()
  in
  let m0 = Group.member cluster 0 in
  for i = 1 to 10 do
    ignore (Group.multicast m0 i)
  done;
  ignore (Engine.schedule e ~delay:0.5 (fun () -> Group.crash cluster 3));
  Engine.run e;
  drain_everyone cluster;
  List.iter
    (fun m ->
      if Group.id m <> 3 then begin
        let v = Group.view m in
        Alcotest.(check int) (Printf.sprintf "member %d in view 1" (Group.id m)) 1 v.View.id;
        Alcotest.(check (list int)) "membership excludes 3" [ 0; 1; 2 ] v.View.members
      end)
    (Group.members cluster);
  check_no_violations cluster

let test_group_purging_under_slow_consumer () =
  let e = Engine.create ~seed:3 () in
  let config = { Group.default_config with buffer_capacity = Some 8 } in
  let cluster =
    Group.create_cluster e ~members:[ 0; 1 ] ~latency:(Latency.Constant 0.001) ~config ()
  in
  let producer = Group.member cluster 0 in
  let slow = Group.member cluster 1 in
  (* Producer: 200 updates of a handful of hot items; slow consumer
     never consumes during the run. *)
  let rng = Rng.create ~seed:7 in
  let sent = ref 0 in
  ignore
    (Engine.every e ~period:0.01 (fun () ->
         let item = Rng.int rng 3 in
         (match Group.multicast producer ~ann:(Annotation.Tag item) !sent with
         | Ok _ -> incr sent
         | Error _ -> ());
         !sent < 200));
  Engine.run e;
  Alcotest.(check bool) "messages were purged" true (Group.purged slow > 0);
  Alcotest.(check bool) "queue bounded" true (Group.pending slow <= 8);
  drain_everyone cluster;
  check_no_violations cluster

let test_group_vs_mode_no_purging () =
  let e = Engine.create ~seed:4 () in
  let config = { Group.default_config with semantic = false } in
  let cluster =
    Group.create_cluster e ~members:[ 0; 1; 2 ] ~latency:(Latency.Constant 0.001) ~config ()
  in
  let m0 = Group.member cluster 0 in
  for i = 1 to 30 do
    ignore (Group.multicast m0 ~ann:(Annotation.Tag 1) i)
  done;
  ignore (Engine.schedule e ~delay:0.5 (fun () -> Group.crash cluster 2));
  Engine.run e;
  drain_everyone cluster;
  List.iter (fun m -> Alcotest.(check int) "nothing purged" 0 (Group.purged m))
    (Group.members cluster);
  check_no_violations ~strict:true cluster

let test_group_chandra_toueg_heartbeats () =
  let e = Engine.create ~seed:5 () in
  let config =
    {
      Group.default_config with
      detector = Group.Heartbeats Svs_detector.Heartbeat.default_config;
      consensus = Group.Chandra_toueg;
    }
  in
  let cluster =
    Group.create_cluster e ~members:[ 0; 1; 2; 3 ]
      ~latency:(Latency.Uniform { lo = 0.001; hi = 0.005 })
      ~config ()
  in
  let m0 = Group.member cluster 0 in
  for i = 1 to 10 do
    ignore (Group.multicast m0 i)
  done;
  ignore (Engine.schedule e ~delay:0.5 (fun () -> Group.crash cluster 2));
  Engine.run ~until:30.0 e;
  drain_everyone cluster;
  List.iter
    (fun m ->
      if Group.id m <> 2 then begin
        Alcotest.(check bool)
          (Printf.sprintf "member %d moved past view 0" (Group.id m))
          true
          ((Group.view m).View.id >= 1);
        Alcotest.(check bool) "membership excludes 2" false (View.mem 2 (Group.view m))
      end)
    (Group.members cluster);
  check_no_violations cluster

let test_group_two_successive_view_changes () =
  let e = Engine.create ~seed:6 () in
  let cluster =
    Group.create_cluster e ~members:[ 0; 1; 2; 3; 4 ] ~latency:(Latency.Constant 0.002) ()
  in
  let m0 = Group.member cluster 0 in
  ignore
    (Engine.every e ~period:0.05 (fun () ->
         ignore (Group.multicast m0 ~ann:(Annotation.Tag 1) 0);
         Engine.now e < 3.0));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> Group.crash cluster 4));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> Group.crash cluster 3));
  Engine.run ~until:5.0 e;
  drain_everyone cluster;
  List.iter
    (fun m ->
      if Group.id m <= 2 then begin
        Alcotest.(check int) (Printf.sprintf "member %d view" (Group.id m)) 2
          (Group.view m).View.id;
        Alcotest.(check (list int)) "final membership" [ 0; 1; 2 ] (Group.view m).View.members
      end)
    (Group.members cluster);
  check_no_violations cluster

let test_group_stability_gc () =
  (* With stability gossip on, delivered messages that everyone has
     received are trimmed from the PRED bookkeeping, so the potential
     view-change flush stays small on a long-running group. *)
  let e = Engine.create ~seed:8 () in
  let config = { Group.default_config with stability_period = Some 0.1 } in
  let cluster =
    Group.create_cluster e ~members:[ 0; 1; 2 ] ~latency:(Latency.Constant 0.001) ~config ()
  in
  let m0 = Group.member cluster 0 in
  ignore
    (Engine.every e ~period:0.01 (fun () ->
         ignore (Group.multicast m0 !(ref 0));
         List.iter (fun m -> ignore (Group.deliver_all m)) (Group.members cluster);
         Engine.now e < 5.0));
  Engine.run ~until:6.0 e;
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "member %d trimmed stable messages (%d)" (Group.id m)
           (Group.stable_trimmed m))
        true
        (Group.stable_trimmed m > 300);
      Alcotest.(check bool)
        (Printf.sprintf "member %d PRED stays small (%d)" (Group.id m) (Group.pred_size m))
        true
        (Group.pred_size m < 100))
    (Group.members cluster);
  check_no_violations cluster

let test_group_overflow_exclusion () =
  (* A member that stops consuming long enough gets expelled once its
     backlog exceeds the configured bound (§3.2's buffer-space
     trigger); the group survives and stays safe. *)
  let e = Engine.create ~seed:9 () in
  let config =
    {
      Group.default_config with
      buffer_capacity = Some 5;
      laggard = Some { Group.backlog_limit = 20; report_after = 0.1; evict_after = Some 0.1 };
    }
  in
  let cluster =
    Group.create_cluster e ~members:[ 0; 1; 2 ] ~latency:(Latency.Constant 0.001) ~config ()
  in
  let m0 = Group.member cluster 0 in
  (* Members 0 and 1 consume; member 2 never does. *)
  ignore
    (Engine.every e ~period:0.005 (fun () ->
         ignore (Group.multicast m0 0);
         ignore (Group.deliver_all m0);
         ignore (Group.deliver_all (Group.member cluster 1));
         Engine.now e < 3.0));
  Engine.run ~until:4.0 e;
  List.iter (fun m -> ignore (Group.deliver_all m)) (Group.members cluster);
  Alcotest.(check (list int)) "member 2 expelled" [ 0; 1 ] (Group.view m0).View.members;
  Alcotest.(check bool) "survivors moved on" true ((Group.view m0).View.id >= 1);
  check_no_violations cluster

let test_group_partition_heals () =
  (* A transient partition delays messages but loses nothing (reliable
     channels); after healing, everything is delivered and safe. *)
  let e = Engine.create ~seed:10 () in
  let cluster =
    Group.create_cluster e ~members:[ 0; 1; 2 ] ~latency:(Latency.Constant 0.001) ()
  in
  let m0 = Group.member cluster 0 in
  for i = 1 to 5 do
    ignore (Group.multicast m0 i)
  done;
  Group.partition cluster 0 2;
  ignore
    (Engine.schedule e ~delay:0.1 (fun () ->
         for i = 6 to 10 do
           ignore (Group.multicast m0 i)
         done));
  ignore (Engine.schedule e ~delay:0.5 (fun () -> Group.heal cluster 0 2));
  Engine.run e;
  List.iter
    (fun m ->
      let data =
        List.filter_map
          (function Types.Data d -> Some d.Types.payload | Types.View_change _ -> None)
          (Group.deliver_all m)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "member %d got everything in order" (Group.id m))
        (List.init 10 (fun i -> i + 1))
        data)
    (Group.members cluster);
  check_no_violations ~strict:true cluster

let test_group_partition_during_view_change () =
  (* The view-change initiator is partitioned from one member right as
     the change starts; reliable channels hold the INIT/PRED traffic
     until the heal, after which the change completes. *)
  let e = Engine.create ~seed:11 () in
  let config = { Group.default_config with consensus = Group.Chandra_toueg } in
  let cluster =
    Group.create_cluster e ~members:[ 0; 1; 2; 3 ] ~latency:(Latency.Constant 0.002)
      ~config ()
  in
  let m0 = Group.member cluster 0 in
  ignore (Group.multicast m0 1);
  ignore
    (Engine.schedule e ~delay:0.1 (fun () ->
         Group.partition cluster 0 3;
         Group.crash cluster 2));
  ignore (Engine.schedule e ~delay:1.5 (fun () -> Group.heal cluster 0 3));
  Engine.run ~until:20.0 e;
  List.iter (fun m -> ignore (Group.deliver_all m)) (Group.members cluster);
  List.iter
    (fun m ->
      if List.mem (Group.id m) [ 0; 1; 3 ] then begin
        Alcotest.(check bool)
          (Printf.sprintf "member %d reconfigured" (Group.id m))
          true
          ((Group.view m).View.id >= 1);
        Alcotest.(check bool) "crashed member gone" false (View.mem 2 (Group.view m))
      end)
    (Group.members cluster);
  check_no_violations cluster

let test_view_majority_edges () =
  (* A strict majority must be unattainable by two disjoint subgroups:
     in a singleton view one vote decides, and in a two-member view
     BOTH are needed — 1 of 2 is not a majority, or two halves could
     each believe they are the primary component. *)
  let maj members = View.majority (View.initial ~members) in
  Alcotest.(check int) "singleton" 1 (maj [ 7 ]);
  Alcotest.(check int) "two members" 2 (maj [ 0; 1 ]);
  Alcotest.(check int) "three members" 2 (maj [ 0; 1; 2 ]);
  Alcotest.(check int) "four members" 3 (maj [ 0; 1; 2; 3 ]);
  Alcotest.(check int) "five members" 3 (maj [ 0; 1; 2; 3; 4 ])

let test_group_minority_never_installs () =
  (* Primary-component contract: after a 3/2 split the minority side
     parks — it never installs a view of its own and delivers nothing
     fresh — while the majority moves on without it. [merge] is off so
     the parked state is observable at the end of the run. *)
  let e = Engine.create ~seed:13 () in
  let config =
    {
      Group.default_config with
      consensus = Group.Chandra_toueg;
      park_timeout = Some 0.5;
      merge = false;
    }
  in
  let cluster =
    Group.create_cluster e ~members:[ 0; 1; 2; 3; 4 ] ~latency:(Latency.Constant 0.002)
      ~config ()
  in
  let m0 = Group.member cluster 0 in
  for i = 1 to 5 do
    ignore (Group.multicast m0 i)
  done;
  ignore
    (Engine.schedule e ~delay:0.1 (fun () ->
         Group.partition_sets cluster [ [ 0; 1; 2 ]; [ 3; 4 ] ];
         Group.write_off cluster [ 3; 4 ]));
  (* Fresh traffic well after the split: it must never reach the
     parked side. *)
  ignore
    (Engine.schedule e ~delay:1.5 (fun () ->
         for i = 6 to 10 do
           ignore (Group.multicast m0 i)
         done));
  Engine.run ~until:3.0 e;
  let v0 = Group.view m0 in
  Alcotest.(check (list int)) "majority view excludes minority" [ 0; 1; 2 ] v0.View.members;
  Alcotest.(check bool) "majority moved on" true (v0.View.id >= 1);
  List.iter
    (fun m ->
      if List.mem (Group.id m) [ 0; 1; 2 ] then
        Alcotest.(check (list int))
          (Printf.sprintf "member %d delivered everything" (Group.id m))
          (List.init 10 (fun i -> i + 1))
          (List.filter_map
             (function Types.Data d -> Some d.Types.payload | Types.View_change _ -> None)
             (Group.deliver_all m)))
    (Group.members cluster);
  List.iter
    (fun p ->
      let m = Group.member cluster p in
      Alcotest.(check bool) (Printf.sprintf "member %d parked" p) true (Group.is_parked m);
      Alcotest.(check int)
        (Printf.sprintf "member %d never installed a view while partitioned" p)
        0
        (Group.view m).View.id;
      Alcotest.(check (list int))
        (Printf.sprintf "member %d delivers nothing fresh" p)
        []
        (List.filter_map
           (function Types.Data d -> Some d.Types.payload | Types.View_change _ -> None)
           (Group.deliver_all m)))
    [ 3; 4 ];
  Alcotest.(check int) "two park transitions" 2 (Group.parked_events cluster);
  check_no_violations ~strict:true cluster

let test_group_bandwidth_codec () =
  (* With a payload codec and finite bandwidth, the cluster still
     behaves identically (just slower) and accounts real wire bytes. *)
  let e = Engine.create ~seed:12 () in
  let cluster =
    Group.create_cluster e ~members:[ 0; 1; 2 ] ~latency:(Latency.Constant 0.001)
      ~bandwidth:100_000.0 ~payload_codec:Svs_core.Wire_codec.int_codec ()
  in
  let m0 = Group.member cluster 0 in
  for i = 1 to 20 do
    ignore (Group.multicast m0 i)
  done;
  ignore (Engine.schedule e ~delay:0.5 (fun () -> Group.crash cluster 2));
  Engine.run e;
  drain_everyone cluster;
  Alcotest.(check bool) "bytes accounted" true (Group.bytes_sent cluster > 500);
  List.iter
    (fun m ->
      if Group.id m <> 2 then
        Alcotest.(check (list int)) "view without 2" [ 0; 1 ] (Group.view m).View.members)
    (Group.members cluster);
  check_no_violations ~strict:true cluster

let test_group_rejoin_with_state_transfer () =
  (* A member crashes, is excluded, restarts from its durable slice and
     walks the JOIN/SYNC handshake back in: the view grows again, the
     sponsor's application snapshot arrives, its pre-crash delivery
     floors survive, and the checker stays green across the growing
     views (Integrity under recovery). *)
  let e = Engine.create ~seed:11 () in
  let cluster =
    Group.create_cluster e ~members:[ 0; 1; 2 ]
      ~latency:(Latency.Uniform { lo = 0.001; hi = 0.01 })
      ()
  in
  let m0 = Group.member cluster 0 in
  let m2 = Group.member cluster 2 in
  List.iter
    (fun m ->
      let id = Group.id m in
      Group.set_state_transfer m (fun () -> Some (Printf.sprintf "snapshot-from-%d" id)))
    (Group.members cluster);
  let synced_app = ref None in
  Group.on_synced m2 (fun _view app -> synced_app := Some app);
  for i = 1 to 20 do
    ignore (Group.multicast m0 i)
  done;
  (* Record the first incarnation's deliveries, then crash it. *)
  let pre = ref [] in
  ignore
    (Engine.schedule e ~delay:0.4 (fun () ->
         pre :=
           List.filter_map
             (function Types.Data d -> Some d.Types.payload | Types.View_change _ -> None)
             (Group.deliver_all m2)));
  ignore (Engine.schedule e ~delay:0.5 (fun () -> Group.crash cluster 2));
  ignore (Engine.schedule e ~delay:1.5 (fun () -> Group.restart cluster 2 ~recover:true));
  let rec nag tries () =
    if Group.is_joining m2 && tries < 200 then begin
      (match
         List.find_opt
           (fun q -> Group.id q <> 2 && Group.is_member q && not (Group.is_blocked q))
           (Group.members cluster)
       with
      | Some contact -> Group.request_join m2 ~contact:(Group.id contact)
      | None -> ());
      ignore (Engine.schedule e ~delay:0.1 (nag (tries + 1)) : Engine.handle)
    end
  in
  ignore (Engine.schedule e ~delay:1.6 (nag 0));
  Engine.run e;
  Alcotest.(check bool) "member again" true (Group.is_member m2);
  List.iter
    (fun m ->
      if Group.is_member m then
        Alcotest.(check (list int))
          (Printf.sprintf "member %d sees the re-grown view" (Group.id m))
          [ 0; 1; 2 ] (Group.view m).View.members)
    (Group.members cluster);
  (match !synced_app with
  | Some (Some s) ->
      Alcotest.(check string) "sponsor's snapshot arrived" "snapshot-from-0" s
  | Some None -> Alcotest.fail "SYNC carried no application state"
  | None -> Alcotest.fail "on_synced never fired");
  (* New traffic flows to the rejoined incarnation, and nothing the
     first incarnation delivered comes back. *)
  for i = 21 to 30 do
    ignore (Group.multicast m0 i)
  done;
  Engine.run e;
  let post =
    List.filter_map
      (function Types.Data d -> Some d.Types.payload | Types.View_change _ -> None)
      (Group.deliver_all m2)
  in
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "rejoined member got %d" i) true
        (List.mem i post))
    [ 21; 22; 23; 24; 25; 26; 27; 28; 29; 30 ];
  List.iter
    (fun p ->
      if List.mem p !pre then
        Alcotest.fail (Printf.sprintf "payload %d delivered twice across the restart" p))
    post;
  drain_everyone cluster;
  check_no_violations cluster

(* Random end-to-end scenarios, verified by the checker. *)
let group_random_scenarios ~semantic ~name =
  QCheck.Test.make ~name ~count:25
    QCheck.(triple small_int (int_range 2 5) (int_range 0 1))
    (fun (seed, n, crashes) ->
      let e = Engine.create ~seed () in
      let config =
        { Group.default_config with semantic; buffer_capacity = Some 10 }
      in
      let cluster =
        Group.create_cluster e
          ~members:(List.init n Fun.id)
          ~latency:(Latency.Exponential { mean = 0.004 })
          ~config ()
      in
      let rng = Rng.create ~seed:(seed * 31) in
      (* Every member multicasts tagged updates at its own pace. *)
      List.iter
        (fun m ->
          let period = 0.01 +. Rng.float rng 0.02 in
          ignore
            (Engine.every e ~period (fun () ->
                 ignore (Group.multicast m ~ann:(Annotation.Tag (Rng.int rng 4)) (Group.id m));
                 Engine.now e < 2.0)))
        (Group.members cluster);
      (* Some members consume slowly during the run. *)
      List.iter
        (fun m ->
          let period = 0.005 +. Rng.float rng 0.05 in
          ignore
            (Engine.every e ~period (fun () ->
                 ignore (Group.deliver m);
                 Engine.now e < 5.0)))
        (Group.members cluster);
      (* Random crash schedule: fewer than half the members. *)
      let max_crashes = Stdlib.min crashes ((n - 1) / 2) in
      let victims = ref [] in
      for _ = 1 to max_crashes do
        let v = Rng.int rng n in
        if not (List.mem v !victims) then begin
          victims := v :: !victims;
          let at = 0.2 +. Rng.float rng 1.5 in
          ignore (Engine.schedule e ~delay:at (fun () -> Group.crash cluster v))
        end
      done;
      Engine.run ~until:6.0 e;
      drain_everyone cluster;
      let violations =
        if semantic then Checker.verify (Group.checker cluster)
        else Checker.verify_strict_vs (Group.checker cluster)
      in
      if violations <> [] then
        QCheck.Test.fail_reportf "violations:@.%s"
          (String.concat "\n" (List.map Checker.violation_to_string violations))
      else true)

(* ------------------------------------------------------------------ *)
(* Purge_diff: indexed purge vs the pairwise reference                  *)
(* ------------------------------------------------------------------ *)

module Purge_diff = Svs_core.Purge_diff

type diff_kind = Dtag | Denum | Dkenum | Dmixed | Dunrelated

(* Random op streams with globally unique ids: each sender hands out
   its sequence numbers from a shuffled pool, so ids never repeat but
   arrive out of order — which is what makes the reverse (drop-fresh)
   direction of every relation fire. Enum predecessors mix queued,
   departed, future, cross-sender and self ids. *)
let gen_diff_ops ~kind ~seed ~n =
  let st = Random.State.make [| 0x9e3779b9; seed |] in
  let nsenders = 3 in
  let pools =
    Array.init nsenders (fun _ ->
        let a = Array.init n (fun i -> i) in
        for i = n - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        (a, ref 0))
  in
  let emitted = ref [] in
  let pick_pred id =
    let r = Random.State.int st 100 in
    if r < 55 && !emitted <> [] then
      List.nth !emitted (Random.State.int st (min 8 (List.length !emitted)))
    else if r < 70 then begin
      (* future: an sn its sender has not handed out yet *)
      let s = Random.State.int st nsenders in
      let a, k = pools.(s) in
      if !k < n then Msg_id.make ~sender:s ~sn:a.(!k + Random.State.int st (n - !k))
      else id
    end
    else if r < 80 then id (* self-reference: must never purge *)
    else Msg_id.make ~sender:(Random.State.int st nsenders) ~sn:(Random.State.int st n)
  in
  let ann_for id =
    let tag () = Annotation.Tag (Random.State.int st 4) in
    let enum () =
      Annotation.Enum (List.init (Random.State.int st 4) (fun _ -> pick_pred id))
    in
    let kenum () =
      let bm = Bitvec.create ~k:8 in
      for _ = 1 to 1 + Random.State.int st 3 do
        Bitvec.set bm (1 + Random.State.int st 8)
      done;
      Annotation.Kenum bm
    in
    match kind with
    | Dtag -> tag ()
    | Denum -> enum ()
    | Dkenum -> kenum ()
    | Dmixed -> (
        match Random.State.int st 4 with
        | 0 -> tag ()
        | 1 -> enum ()
        | 2 -> kenum ()
        | _ -> Annotation.Unrelated)
    | Dunrelated -> (
        (* Mostly plain payloads, the fast path of the index: the few
           Enum and Kenum messages name them, so a queued annotated
           message obsoletes fresh unannotated ones. *)
        match Random.State.int st 10 with
        | 0 -> enum ()
        | 1 -> kenum ()
        | _ -> Annotation.Unrelated)
  in
  List.init n (fun _ ->
      if Random.State.int st 100 < 18 then Purge_diff.Pop
      else begin
        let sender = Random.State.int st nsenders in
        let a, k = pools.(sender) in
        let sn = a.(!k) in
        incr k;
        let id = Msg_id.make ~sender ~sn in
        let view = if Random.State.int st 100 < 10 then 1 else 0 in
        let it = { Purge_diff.view; id; ann = ann_for id } in
        emitted := id :: !emitted;
        Purge_diff.Insert it
      end)

(* 250 cases x ~410 inserts each: > 1e5 randomized inserts per kind. *)
let purge_diff_agrees ~name ~kind =
  QCheck.Test.make ~name ~count:250 QCheck.small_nat (fun seed ->
      let ops = gen_diff_ops ~kind ~seed ~n:500 in
      match Purge_diff.agree ops with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "op %d: %s" d.Purge_diff.at_op d.Purge_diff.reason)

(* Regression: an Enum naming a not-yet-queued predecessor must not
   purge it retroactively once the enum itself has left the queue —
   stale reverse-index state would do exactly that. *)
let test_purge_enum_no_retroactive () =
  let open Purge_diff in
  let e_id = Msg_id.make ~sender:0 ~sn:1 in
  let p_id = Msg_id.make ~sender:1 ~sn:0 in
  let x = Indexed.create () in
  Alcotest.(check int) "enum insert purges nothing" 0
    (List.length (Indexed.insert x { view = 0; id = e_id; ann = Annotation.Enum [ p_id ] }));
  (match Indexed.pop x with
  | Some it -> Alcotest.(check bool) "popped the enum" true (Msg_id.equal it.id e_id)
  | None -> Alcotest.fail "expected the enum at the front");
  Alcotest.(check int) "late predecessor is not retro-purged" 0
    (List.length (Indexed.insert x { view = 0; id = p_id; ann = Annotation.Unrelated }));
  match Indexed.contents x with
  | [ it ] -> Alcotest.(check bool) "predecessor queued" true (Msg_id.equal it.id p_id)
  | l -> Alcotest.failf "queue holds %d items, expected 1" (List.length l)

(* While the enum IS still queued, the late predecessor is dropped on
   arrival — in both engines. *)
let test_purge_enum_drops_late_predecessor () =
  let check_engine name (module En : Purge_diff.ENGINE) =
    let e_id = Msg_id.make ~sender:0 ~sn:1 in
    let p_id = Msg_id.make ~sender:1 ~sn:0 in
    let t = En.create () in
    ignore
      (En.insert t { Purge_diff.view = 0; id = e_id; ann = Annotation.Enum [ p_id ] }
        : Msg_id.t list);
    let purged = En.insert t { Purge_diff.view = 0; id = p_id; ann = Annotation.Unrelated } in
    Alcotest.(check bool) (name ^ ": fresh predecessor dropped") true (purged = [ p_id ]);
    Alcotest.(check int) (name ^ ": only the enum remains") 1 (List.length (En.contents t))
  in
  check_engine "reference" (module Purge_diff.Reference);
  check_engine "indexed" (module Purge_diff.Indexed)

(* ------------------------------------------------------------------ *)
(* Allocation budgets on the data path                                  *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words per call, averaged over [alloc_n] calls so one-off
   growth averages out and any per-call allocation shows as at least
   one word. *)
let alloc_n = 20_000

module Purge_index = Svs_obs.Purge_index

(* An unannotated message probes a view whose queue holds unannotated
   entries of every sender, a queued Enum naming sns that are not
   probed, and a Kenum entry above the probed sns (so both reverse
   probes run and miss): [plan] allocates nothing. *)
let test_purge_index_unrelated_allocates_nothing () =
  let idx = Purge_index.create () in
  let seq = ref 0 in
  let add ~sender ~sn ann =
    Purge_index.add idx ~view:0 ~id:(Msg_id.make ~sender ~sn) ~ann () ~seq:!seq;
    incr seq
  in
  for sender = 0 to 2 do
    for sn = 0 to 9 do
      add ~sender ~sn Annotation.Unrelated
    done
  done;
  add ~sender:1 ~sn:10 (Annotation.Enum [ Msg_id.make ~sender:0 ~sn:3 ]);
  let bm = Bitvec.create ~k:8 in
  Bitvec.set bm 3;
  add ~sender:2 ~sn:(2 * alloc_n) (Annotation.Kenum bm);
  let ids = Array.init alloc_n (fun i -> Msg_id.make ~sender:(i mod 3) ~sn:(20 + i)) in
  let w0 = Gc.minor_words () in
  for i = 0 to alloc_n - 1 do
    match Purge_index.plan idx ~view:0 ~id:ids.(i) ~ann:Annotation.Unrelated with
    | [], false -> ()
    | _ -> Alcotest.fail "planned a purge"
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "plan words per call" 0.0
    ((w1 -. w0) /. float_of_int alloc_n)

(* Three directly wired protocols, semantic purging on: process 0
   multicasts unannotated ints, its outputs go straight to the others'
   [receive], and every process drains its queue. Measured at 90 words
   per multicast (46 at the sender with its outputs, 16 per receive, 4
   per delivery); the budget leaves about 10 % headroom. *)
let test_protocol_words_per_multicast () =
  let view = View.initial ~members:[ 0; 1; 2 ] in
  let ps =
    Array.init 3 (fun me -> Protocol.create ~me ~initial_view:view ~suspects:(fun _ -> false) ())
  in
  let rec drain p = match Protocol.deliver p with Some _ -> drain p | None -> () in
  let rec forward = function
    | [] -> ()
    | Types.Send { dst; wire } :: rest ->
        Protocol.receive ps.(dst) ~src:0 wire;
        forward rest
    | _ :: rest -> forward rest
  in
  let w0 = Gc.minor_words () in
  for i = 1 to alloc_n do
    ignore (Sys.opaque_identity (Protocol.multicast ps.(0) i));
    forward (Protocol.take_outputs ps.(0));
    Array.iter drain ps
  done;
  let per_mcast = (Gc.minor_words () -. w0) /. float_of_int alloc_n in
  Array.iter
    (fun p ->
      Alcotest.(check int) "every multicast delivered" alloc_n
        (List.length (Protocol.accepted_in_view p)))
    ps;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per multicast (budget 100)" per_mcast)
    true (per_mcast <= 100.0)

(* A Kenum stream in which each message covers its predecessor: every
   delivery evicts the one before it from the PRED bookkeeping, and
   allocates no more than an unannotated delivery does (the
   [Some (Data d)] it returns), give or take the index's one-off setup
   (a sender record and its first arrays: 0.005 words a call leaves
   room for 100 words in all). Only the [deliver] calls are measured,
   net of the cost of reading the counter. *)
let test_protocol_evicting_deliver_words () =
  let counter_cost =
    let total = ref 0.0 in
    for _ = 1 to alloc_n do
      let w0 = Gc.minor_words () in
      total := !total +. (Gc.minor_words () -. w0)
    done;
    !total
  in
  let words ann =
    let p =
      Protocol.create ~me:0 ~initial_view:(View.initial ~members:[ 0 ])
        ~suspects:(fun _ -> false) ()
    in
    let total = ref 0.0 in
    for i = 1 to alloc_n do
      ignore (Sys.opaque_identity (Protocol.multicast p ~ann i));
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (Protocol.deliver p));
      total := !total +. (Gc.minor_words () -. w0)
    done;
    (p, (!total -. counter_cost) /. float_of_int alloc_n)
  in
  let bm = Bitvec.create ~k:8 in
  Bitvec.set bm 1;
  let _, plain = words Annotation.Unrelated in
  let p, evicting = words (Annotation.Kenum bm) in
  Alcotest.(check int) "each delivery evicted its predecessor" (alloc_n - 1) (Protocol.evicted p);
  Alcotest.(check int) "only the newest retained" 1 (List.length (Protocol.accepted_in_view p));
  Alcotest.(check bool)
    (Printf.sprintf "%.4f words per evicting delivery (unannotated %.4f)" evicting plain)
    true
    (evicting <= plain +. 0.005)

(* Three directly wired protocols of view {0,1,2}: [forward ps ~src]
   hands [src]'s outputs to their destinations' [receive]. *)
let wired_protocols () =
  let view = View.initial ~members:[ 0; 1; 2 ] in
  Array.init 3 (fun me -> Protocol.create ~me ~initial_view:view ~suspects:(fun _ -> false) ())

let rec forward ps ~src = function
  | [] -> ()
  | Types.Send { dst; wire } :: rest ->
      Protocol.receive ps.(dst) ~src wire;
      forward ps ~src rest
  | _ :: rest -> forward ps ~src rest

let rec drain_protocol p = match Protocol.deliver p with Some _ -> drain_protocol p | None -> ()

(* Process 0 multicasts [alloc_n] unannotated ints, which everyone
   delivers; then 1 and 2 gossip their floors to 0. The second STABLE
   makes every message stable at 0, and the trim that drops all
   [alloc_n] of them allocates a few dozen words (2's floor table and
   the floor refresh's closure), not a word per message: measured at
   0.0020 words per dropped message, budget 0.01. *)
let test_trim_stable_words () =
  let ps = wired_protocols () in
  for i = 1 to alloc_n do
    ignore (Sys.opaque_identity (Protocol.multicast ps.(0) i));
    forward ps ~src:0 (Protocol.take_outputs ps.(0))
  done;
  Array.iter drain_protocol ps;
  Protocol.gossip_stability ps.(1);
  forward ps ~src:1 (Protocol.take_outputs ps.(1));
  Alcotest.(check int) "nothing stable before 2's floors" 0 (Protocol.stable_trimmed ps.(0));
  Protocol.gossip_stability ps.(2);
  let to_0 =
    List.find_map
      (function Types.Send { dst = 0; wire } -> Some wire | _ -> None)
      (Protocol.take_outputs ps.(2))
    |> Option.get
  in
  let w0 = Gc.minor_words () in
  Protocol.receive ps.(0) ~src:2 to_0;
  let per_msg = (Gc.minor_words () -. w0) /. float_of_int alloc_n in
  Alcotest.(check int) "every message trimmed" alloc_n (Protocol.stable_trimmed ps.(0));
  Alcotest.(check bool)
    (Printf.sprintf "%.4f words per trimmed message (budget 0.01)" per_msg)
    true (per_msg <= 0.01)

(* One STABLE round of a busy group, as the runtime runs it once a
   tick: process 0 multicasts ten messages that everyone delivers,
   then every process gossips its floors and every STABLE is received
   (each receipt trims). Only the round is measured: gossip, receipt
   and trim of all three processes together. Measured at 153 words a
   round; the budget leaves about 10 % headroom. *)
let test_stable_round_words () =
  let ps = wired_protocols () in
  let rounds = 2_000 in
  let total = ref 0.0 in
  for r = 1 to rounds do
    for i = 1 to 10 do
      ignore (Sys.opaque_identity (Protocol.multicast ps.(0) ((10 * r) + i)));
      forward ps ~src:0 (Protocol.take_outputs ps.(0))
    done;
    Array.iter drain_protocol ps;
    let w0 = Gc.minor_words () in
    for src = 0 to 2 do
      Protocol.gossip_stability ps.(src);
      forward ps ~src (Protocol.take_outputs ps.(src))
    done;
    total := !total +. (Gc.minor_words () -. w0)
  done;
  let per_round = !total /. float_of_int rounds in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "all but the last round trimmed" true
        (Protocol.stable_trimmed p >= 10 * (rounds - 1)))
    ps;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per STABLE round (budget 168)" per_round)
    true (per_round <= 168.0)

(* Stability pinned: process 2 receives nothing, so no message is ever
   stable, and 1's floors reach 0 once per tick. A STABLE that raises
   no stable floor, with nothing delivered since the last trim, cannot
   drop anything: 0 must not rescan its 200k-message store for it.
   Rescanning costs about 2.4 ms of CPU per receipt, so 200 receipts
   take about 0.5 s; skipping, well under the 0.05 s budget. *)
let test_pinned_stability_skips_scan () =
  let ps = wired_protocols () in
  let rec to_0_and_1 ~src = function
    | [] -> ()
    | Types.Send { dst; wire } :: rest ->
        if dst <> 2 then Protocol.receive ps.(dst) ~src wire;
        to_0_and_1 ~src rest
    | _ :: rest -> to_0_and_1 ~src rest
  in
  let n = 200_000 in
  for i = 1 to n do
    ignore (Protocol.multicast ps.(0) i);
    to_0_and_1 ~src:0 (Protocol.take_outputs ps.(0))
  done;
  drain_protocol ps.(0);
  drain_protocol ps.(1);
  let stable_from_1 () =
    Protocol.gossip_stability ps.(1);
    to_0_and_1 ~src:1 (Protocol.take_outputs ps.(1))
  in
  stable_from_1 ();
  let t0 = Sys.time () in
  for _ = 1 to 200 do
    stable_from_1 ()
  done;
  let cpu = Sys.time () -. t0 in
  Alcotest.(check int) "nothing stable" 0 (Protocol.stable_trimmed ps.(0));
  Alcotest.(check int) "everything retained" n (List.length (Protocol.accepted_in_view ps.(0)));
  Alcotest.(check bool)
    (Printf.sprintf "200 idle STABLE receipts took %.4f s of CPU (budget 0.05)" cpu)
    true (cpu <= 0.05)

(* ------------------------------------------------------------------ *)
(* Retained: an emptied store keeps its array, not its messages        *)
(* ------------------------------------------------------------------ *)

module Retained = Svs_core.Retained

let retained_msg sn =
  {
    Types.id = Msg_id.make ~sender:0 ~sn;
    view_id = 0;
    payload = ref sn;
    ann = Annotation.Unrelated;
  }

(* Fill the store with messages only [weak] points at besides it. *)
let fill_retained r weak =
  for i = 0 to Weak.length weak - 1 do
    let d = retained_msg i in
    Weak.set weak i (Some d);
    Retained.add r d
  done

let test_retained_emptied_pins_one () =
  let n = 1_000 in
  let r = Retained.create () in
  let weak = Weak.create n in
  fill_retained r weak;
  Alcotest.(check int) "every message dropped" n
    (Retained.filter_in_place (fun () _ -> false) () r);
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr alive
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d trimmed messages still reachable (at most 1)" !alive n)
    true (!alive <= 1);
  (* The array stayed: refilling to the old size allocates no array. *)
  let again = List.init n (fun i -> retained_msg (n + i)) in
  let b0 = Gc.allocated_bytes () in
  List.iter (Retained.add r) again;
  let bytes = Gc.allocated_bytes () -. b0 in
  Alcotest.(check bool)
    (Printf.sprintf "refill allocated %.0f bytes (at most 64)" bytes)
    true (bytes <= 64.0)

(* ------------------------------------------------------------------ *)
(* Member: the divergence rule, driven directly                        *)
(* ------------------------------------------------------------------ *)

(* A recording host for member 0 of view {0,1,2}: no transport. It
   records the leave list of every INIT sent (one per peer), every
   digest's destination and every proposal (the centralised [propose]
   path), and answers with the driver's held-back data, the detector's
   suspected set and each peer's lag. *)
type fake = {
  inits : int ref;
  leaves : int list list ref;
  digests : int list ref;
  proposals : int Types.proposal list ref;
  backlog : int ref;
  suspected : int list ref;
  lag : float array;
}

let fake_host () =
  let f =
    {
      inits = ref 0;
      leaves = ref [];
      digests = ref [];
      proposals = ref [];
      backlog = ref 0;
      suspected = ref [];
      lag = Array.make 3 0.0;
    }
  in
  let host =
    {
      Member.send_wire =
        (fun ~dst:_ wire ->
          match wire with
          | Types.Winit { leave; _ } ->
              incr f.inits;
              f.leaves := leave :: !(f.leaves)
          | _ -> ());
      send_cons = (fun ~dst:_ ~view_id:_ _ -> ());
      suspects = (fun p -> List.mem p !(f.suspected));
      suspected = (fun () -> !(f.suspected));
      propose = Some (fun ~view_id:_ proposal -> f.proposals := proposal :: !(f.proposals));
      backlog = (fun () -> !(f.backlog));
      deliverable = (fun () -> ());
      installed = (fun _ -> ());
      excluded = (fun _ ~rejoin:_ -> ());
      synced = (fun _ _ -> ());
      parked = (fun () -> ());
      rejoin = (fun () -> ());
      lag = (fun p -> (f.lag.(p), 100));
      send_digest = (fun ~dst ~view_id:_ _ -> f.digests := dst :: !(f.digests));
    }
  in
  (f, host)

(* No engine run: the test feeds peer digests and runs the divergence
   rounds by hand. *)
let member_harness ?(heal = true) ~rounds () =
  let f, host = fake_host () in
  let m =
    Member.create (Engine.create ()) ~me:0 ~peers:[ 0; 1; 2 ]
      ~clock:(fun () -> 0.0)
      ~divergence:{ Member.period = 1.0; rounds; heal }
      host
  in
  (m, f.inits, f.backlog)

(* Both peers report [digest] for the member's current view. *)
let report m digest =
  List.iter
    (fun src -> Member.note_digest m ~src ~view_id:(Member.view m).View.id digest)
    [ 1; 2 ]

let streak m = Member.divergence_streak m

let test_member_streak_needs_same_disagreement () =
  let m, _, _ = member_harness ~rounds:3 () in
  let mine = Member.digest m in
  report m (mine + 1);
  Member.check_divergence m;
  Member.check_divergence m;
  Alcotest.(check int) "same (mine, theirs) extends" 2 (streak m);
  report m (mine + 2);
  Member.check_divergence m;
  Alcotest.(check int) "a different theirs restarts at 1" 1 (streak m);
  Member.set_state_digest m (fun () -> 7);
  Member.check_divergence m;
  Alcotest.(check int) "a different mine restarts at 1" 1 (streak m);
  Member.note_digest m ~src:1 ~view_id:0 (Member.digest m + 1);
  Member.check_divergence m;
  Alcotest.(check int) "a split rest-of-view resets" 0 (streak m);
  report m (Member.digest m);
  Member.check_divergence m;
  Alcotest.(check int) "agreement resets" 0 (streak m);
  Alcotest.(check int) "never convicted" 0 (Member.divergences m)

let test_member_nonquiescent_round_resets () =
  let m, inits, backlog = member_harness ~rounds:3 () in
  report m (Member.digest m + 1);
  Member.check_divergence m;
  Member.check_divergence m;
  Alcotest.(check int) "two rounds counted" 2 (streak m);
  backlog := 1;
  Member.check_divergence m;
  Alcotest.(check int) "held-back data resets" 0 (streak m);
  backlog := 0;
  Member.check_divergence m;
  Member.check_divergence m;
  Alcotest.(check int) "counting starts over" 2 (streak m);
  Alcotest.(check int) "no conviction across the reset" 0 (Member.divergences m);
  Member.check_divergence m;
  Alcotest.(check int) "third straight round convicts" 1 (Member.divergences m);
  Alcotest.(check int) "streak cleared on conviction" 0 (streak m);
  Alcotest.(check int) "self-exclusion INIT to both peers" 2 !inits;
  Alcotest.(check bool) "blocked in its own exclusion" true (Member.is_blocked m)

let test_member_synced_clears_divergence () =
  let m, _, _ = member_harness ~rounds:2 () in
  report m (Member.digest m + 1);
  Member.check_divergence m;
  Alcotest.(check int) "one round counted" 1 (streak m);
  (* Readmission as a new incarnation; the peers' digests for the
     re-entry view race ahead of the SYNC. *)
  Member.restart m ~recovery:(Member.recovery m) ();
  Alcotest.(check bool) "joining" true (Member.is_joining m);
  let v1 = View.make ~id:1 ~members:[ 0; 1; 2 ] in
  List.iter (fun src -> Member.note_digest m ~src ~view_id:1 12345) [ 1; 2 ];
  Member.receive m ~src:1 (Types.Wsync { view = v1; floors = []; app = None });
  Alcotest.(check bool) "readmitted" true (Member.is_member m);
  Alcotest.(check int) "streak cleared" 0 (streak m);
  Member.check_divergence m;
  Alcotest.(check int) "pre-sync reports forgotten" 0 (streak m);
  Alcotest.(check int) "no conviction" 0 (Member.divergences m)

let test_member_no_heal_counts_only () =
  let m, inits, _ = member_harness ~heal:false ~rounds:2 () in
  report m (Member.digest m + 1);
  Member.check_divergence m;
  Member.check_divergence m;
  Alcotest.(check int) "detection counted" 1 (Member.divergences m);
  Alcotest.(check int) "no self-exclusion sent" 0 !inits;
  Alcotest.(check bool) "still an unblocked member" true
    (Member.is_member m && not (Member.is_blocked m));
  Member.check_divergence m;
  Member.check_divergence m;
  Alcotest.(check int) "keeps counting" 2 (Member.divergences m)

(* The laggard rule on the engine: it ticks every [report_after / 4] =
   0.1 s and reads the fake host's lag. *)
let laggard_harness ~evict_after =
  let f, host = fake_host () in
  let e = Engine.create () in
  let m =
    Member.create e ~me:0 ~peers:[ 0; 1; 2 ]
      ~clock:(fun () -> Engine.now e)
      ~laggard:{ Member.report_after = 0.4; evict_after }
      host
  in
  (m, f, e)

let test_member_laggard_reported_once () =
  let m, f, e = laggard_harness ~evict_after:None in
  f.lag.(2) <- 0.3;
  Engine.run ~until:0.5 e;
  Alcotest.(check int) "not yet" 0 (Member.slow_reports m);
  f.lag.(2) <- 0.5;
  Engine.run ~until:2.0 e;
  Alcotest.(check int) "one report for the whole episode" 1 (Member.slow_reports m)

let test_member_laggard_evicted () =
  let m, f, e = laggard_harness ~evict_after:(Some 1.0) in
  f.lag.(2) <- 0.9;
  Engine.run ~until:0.5 e;
  Alcotest.(check bool) "reported, not evicting" true
    (Member.slow_reports m = 1 && not (Member.evicting m 2));
  Alcotest.(check int) "no view change yet" 0 !(f.inits);
  f.lag.(2) <- 1.0;
  Engine.run ~until:0.65 e;
  Alcotest.(check bool) "evicting" true (Member.evicting m 2);
  (* The detector suspects nobody: the leave is the eviction's. *)
  Alcotest.(check (list (list int))) "INIT leaving the laggard, to both peers" [ [ 2 ]; [ 2 ] ]
    !(f.leaves);
  Alcotest.(check bool) "the healthy peer is left alone" false (Member.evicting m 1)

let test_member_laggard_never_evicted () =
  let m, f, e = laggard_harness ~evict_after:None in
  f.lag.(2) <- 100.0;
  Engine.run ~until:5.0 e;
  Alcotest.(check bool) "not evicting" false (Member.evicting m 2);
  Alcotest.(check int) "no view change" 0 !(f.inits);
  Alcotest.(check bool) "still an unblocked member" true
    (Member.is_member m && not (Member.is_blocked m))

(* A view change is underway (peer 1's INIT, leaving nobody) when the
   laggard crosses [evict_after]; its heartbeat then rescinds the
   detector's suspicion. The member still does not wait for the
   laggard's PRED: it proposes the view without it once peer 1's PRED
   arrives. *)
let test_member_evicting_survives_rescind () =
  let m, f, e = laggard_harness ~evict_after:(Some 1.0) in
  f.suspected := [ 2 ];
  Member.receive m ~src:1 (Types.Winit { view_id = 0; leave = []; join = [] });
  Alcotest.(check bool) "blocked in peer 1's view change" true (Member.is_blocked m);
  f.lag.(2) <- 1.0;
  Engine.run ~until:0.15 e;
  Alcotest.(check bool) "evicting" true (Member.evicting m 2);
  f.suspected := [];
  Member.on_suspicion m;
  Alcotest.(check (list int)) "rescind triggers no proposal" []
    (List.map (fun p -> p.Types.next_view.View.id) !(f.proposals));
  Member.receive m ~src:1 (Types.Wpred { view_id = 0; msgs = [] });
  match !(f.proposals) with
  | [ p ] ->
      Alcotest.(check (list int)) "the laggard is left out" [ 0; 1 ]
        (List.sort compare p.Types.next_view.View.members)
  | ps -> Alcotest.failf "%d proposals, expected 1" (List.length ps)

let test_member_laggard_episode_clears () =
  let m, f, e = laggard_harness ~evict_after:(Some 1.0) in
  f.lag.(2) <- 1.0;
  Engine.run ~until:0.15 e;
  Alcotest.(check bool) "evicting" true (Member.evicting m 2);
  f.lag.(2) <- 0.0;
  Engine.run ~until:0.25 e;
  Alcotest.(check bool) "lag 0 ends the eviction" false (Member.evicting m 2);
  Alcotest.(check int) "one report so far" 1 (Member.slow_reports m);
  f.lag.(2) <- 0.5;
  Engine.run ~until:0.35 e;
  Alcotest.(check int) "a new episode is reported again" 2 (Member.slow_reports m)

let test_member_digest_gossip () =
  let f, host = fake_host () in
  let e = Engine.create () in
  let m =
    Member.create e ~me:0 ~peers:[ 0; 1; 2 ]
      ~clock:(fun () -> Engine.now e)
      ~divergence:{ Member.period = 1.0; rounds = 3; heal = true }
      host
  in
  Engine.run ~until:1.01 e;
  Alcotest.(check (list int)) "one digest to each other member" [ 1; 2 ]
    (List.sort compare !(f.digests));
  Engine.run ~until:2.01 e;
  Alcotest.(check int) "once a period" 4 (List.length !(f.digests));
  Member.receive m ~src:1 (Types.Winit { view_id = 0; leave = []; join = [] });
  Engine.run ~until:3.01 e;
  Alcotest.(check int) "none while blocked" 4 (List.length !(f.digests))

(* The "floors rose" rule: a tick sends STABLE to every other member
   once this member's floors rose, and nothing while they stand still
   or while it is blocked. *)
let test_member_stability_tick () =
  let _, host = fake_host () in
  let stables = ref 0 in
  let host =
    {
      host with
      Member.send_wire =
        (fun ~dst wire ->
          (match wire with Types.Wstable _ -> incr stables | _ -> ());
          host.Member.send_wire ~dst wire);
    }
  in
  let m = Member.create (Engine.create ()) ~me:0 ~peers:[ 0; 1; 2 ] ~clock:(fun () -> 0.0) host in
  Member.stability_tick m;
  Alcotest.(check int) "no floors yet" 0 !stables;
  ignore (Member.multicast m 1);
  Member.stability_tick m;
  Alcotest.(check int) "own multicast raised a floor" 2 !stables;
  Member.stability_tick m;
  Alcotest.(check int) "unchanged floors stay home" 2 !stables;
  Member.receive m ~src:1
    (Types.Wdata
       {
         Types.id = Msg_id.make ~sender:1 ~sn:0;
         view_id = 0;
         payload = 7;
         ann = Annotation.Unrelated;
       });
  Member.stability_tick m;
  Alcotest.(check int) "a peer's message raised a floor" 4 !stables;
  ignore (Member.multicast m 2);
  Member.receive m ~src:1 (Types.Winit { view_id = 0; leave = []; join = [] });
  Member.stability_tick m;
  Alcotest.(check int) "none while blocked" 4 !stables

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "svs_core"
    [
      ( "dq",
        [
          Alcotest.test_case "fifo" `Quick test_dq_fifo;
          Alcotest.test_case "push_front" `Quick test_dq_push_front;
          Alcotest.test_case "filter_in_place" `Quick test_dq_filter_in_place;
          Alcotest.test_case "wraparound" `Quick test_dq_wraparound;
          Alcotest.test_case "handle remove" `Quick test_dq_handle_remove;
          Alcotest.test_case "handles survive churn" `Quick test_dq_handle_survives_churn;
          Alcotest.test_case "clear detaches handles" `Quick test_dq_clear_detaches_handles;
          q dq_matches_list_model;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "multicast reaches all" `Quick test_proto_multicast_reaches_all;
          Alcotest.test_case "purge in queue" `Quick test_proto_purge_in_queue;
          Alcotest.test_case "fast consumer sees all" `Quick test_proto_fast_consumer_sees_all;
          Alcotest.test_case "plain VS keeps all" `Quick test_proto_no_purge_when_vs;
          Alcotest.test_case "view change basic" `Quick test_proto_view_change_basic;
          Alcotest.test_case "multicast blocked" `Quick test_proto_multicast_blocked_during_view_change;
          Alcotest.test_case "flush before marker" `Quick test_proto_view_change_flushes_unconsumed;
          Alcotest.test_case "pred injection" `Quick test_proto_svs_pred_injection;
          Alcotest.test_case "stale data dropped" `Quick test_proto_stale_data_dropped_after_view;
          Alcotest.test_case "future data stashed" `Quick test_proto_future_view_data_stashed;
          Alcotest.test_case "outsider multicast" `Quick test_proto_not_member_multicast;
          Alcotest.test_case "t7 skips suspected" `Quick test_proto_suspected_member_skipped_in_t7;
          Alcotest.test_case "cross-sender enum" `Quick test_proto_cross_sender_enum;
          Alcotest.test_case "duplicate decision" `Quick test_proto_duplicate_decision_ignored;
          Alcotest.test_case "dead protocol inert" `Quick test_proto_receive_when_dead;
          Alcotest.test_case "trigger while blocked" `Quick test_proto_trigger_while_blocked_ignored;
          Alcotest.test_case "local-pred tracking" `Quick test_proto_local_pred_tracking;
          Alcotest.test_case "delivery evicts covered" `Quick test_proto_evicts_covered;
          Alcotest.test_case "pinned stability skips the scan" `Quick
            test_pinned_stability_skips_scan;
          q eviction_matches_pairwise_model;
          Alcotest.test_case "voluntary leave" `Quick test_proto_voluntary_leave;
          Alcotest.test_case "deterministic" `Quick test_proto_deterministic;
          q purge_matches_fixpoint_model;
        ] );
      ( "checker",
        [
          Alcotest.test_case "clean trace" `Quick test_checker_accepts_clean_trace;
          Alcotest.test_case "creation" `Quick test_checker_detects_creation;
          Alcotest.test_case "duplication" `Quick test_checker_detects_duplication;
          Alcotest.test_case "fifo" `Quick test_checker_detects_fifo_violation;
          Alcotest.test_case "svs hole" `Quick test_checker_detects_svs_hole;
          Alcotest.test_case "cover accepted" `Quick test_checker_accepts_cover_instead;
          Alcotest.test_case "transitive cover" `Quick test_checker_transitive_cover;
          Alcotest.test_case "strict VS flags purge" `Quick test_checker_strict_vs_flags_purge;
          Alcotest.test_case "incarnation gap" `Quick test_checker_incarnation_gap;
          Alcotest.test_case "park-merge convergence" `Quick
            test_checker_park_merge_convergence;
          Alcotest.test_case "strict VS = verify on empty relation" `Quick
            test_checker_strict_vs_equals_verify_on_empty_relation;
        ] );
      ( "group",
        [
          Alcotest.test_case "basic multicast" `Quick test_group_basic_multicast;
          Alcotest.test_case "crash → view change" `Quick test_group_crash_triggers_view_change;
          Alcotest.test_case "slow consumer purging" `Quick test_group_purging_under_slow_consumer;
          Alcotest.test_case "VS mode" `Quick test_group_vs_mode_no_purging;
          Alcotest.test_case "CT + heartbeats" `Quick test_group_chandra_toueg_heartbeats;
          Alcotest.test_case "two view changes" `Quick test_group_two_successive_view_changes;
          Alcotest.test_case "stability GC" `Quick test_group_stability_gc;
          Alcotest.test_case "overflow exclusion" `Quick test_group_overflow_exclusion;
          Alcotest.test_case "partition heals" `Quick test_group_partition_heals;
          Alcotest.test_case "partition during view change" `Quick
            test_group_partition_during_view_change;
          Alcotest.test_case "majority edge sizes" `Quick test_view_majority_edges;
          Alcotest.test_case "minority parks, never installs" `Quick
            test_group_minority_never_installs;
          Alcotest.test_case "bandwidth + codec" `Quick test_group_bandwidth_codec;
          Alcotest.test_case "rejoin + state transfer" `Quick
            test_group_rejoin_with_state_transfer;
          q (group_random_scenarios ~semantic:true ~name:"random scenarios (semantic)");
          q (group_random_scenarios ~semantic:false ~name:"random scenarios (strict VS)");
        ] );
      ( "member",
        [
          Alcotest.test_case "streak needs the same disagreement" `Quick
            test_member_streak_needs_same_disagreement;
          Alcotest.test_case "non-quiescent round resets" `Quick
            test_member_nonquiescent_round_resets;
          Alcotest.test_case "synced clears divergence state" `Quick
            test_member_synced_clears_divergence;
          Alcotest.test_case "no-heal counts without demoting" `Quick
            test_member_no_heal_counts_only;
          Alcotest.test_case "laggard reported once per episode" `Quick
            test_member_laggard_reported_once;
          Alcotest.test_case "laggard evicted at evict_after" `Quick test_member_laggard_evicted;
          Alcotest.test_case "no evict_after never evicts" `Quick
            test_member_laggard_never_evicted;
          Alcotest.test_case "eviction survives a detector rescind" `Quick
            test_member_evicting_survives_rescind;
          Alcotest.test_case "laggard episode clears at lag 0" `Quick
            test_member_laggard_episode_clears;
          Alcotest.test_case "digest gossip once a period" `Quick test_member_digest_gossip;
          Alcotest.test_case "floors go out on the tick they rise" `Quick
            test_member_stability_tick;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "purge index: unrelated probes allocate nothing" `Quick
            test_purge_index_unrelated_allocates_nothing;
          Alcotest.test_case "protocol words per multicast" `Quick
            test_protocol_words_per_multicast;
          Alcotest.test_case "evicting delivery words" `Quick
            test_protocol_evicting_deliver_words;
          Alcotest.test_case "stable trim words" `Quick test_trim_stable_words;
          Alcotest.test_case "STABLE round words" `Quick test_stable_round_words;
        ] );
      ( "retained",
        [
          Alcotest.test_case "emptied store pins at most one" `Quick
            test_retained_emptied_pins_one;
        ] );
      ( "purge-diff",
        [
          Alcotest.test_case "enum: no retroactive purge" `Quick
            test_purge_enum_no_retroactive;
          Alcotest.test_case "enum: late predecessor dropped" `Quick
            test_purge_enum_drops_late_predecessor;
          q (purge_diff_agrees ~name:"indexed = pairwise (tag)" ~kind:Dtag);
          q (purge_diff_agrees ~name:"indexed = pairwise (enum)" ~kind:Denum);
          q (purge_diff_agrees ~name:"indexed = pairwise (kenum)" ~kind:Dkenum);
          q (purge_diff_agrees ~name:"indexed = pairwise (mixed)" ~kind:Dmixed);
          q (purge_diff_agrees ~name:"indexed = pairwise (unrelated)" ~kind:Dunrelated);
        ] );
    ]
