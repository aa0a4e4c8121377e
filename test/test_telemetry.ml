(* Tests for svs_telemetry: registry semantics, histogram quantiles,
   trace sinks and JSONL round-trip, and the instrumented Group stack
   (trace purge count == protocol purge count). *)

module Metrics = Svs_telemetry.Metrics
module Trace = Svs_telemetry.Trace
module Group = Svs_core.Group
module Engine = Svs_sim.Engine
module Latency = Svs_net.Latency
module Annotation = Svs_obs.Annotation
module Rng = Svs_sim.Rng

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  let c = Metrics.Counter.detached () in
  Alcotest.(check int) "starts at 0" 0 (Metrics.Counter.value c);
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  Alcotest.(check int) "incr + add" 5 (Metrics.Counter.value c);
  Metrics.Counter.add c 0;
  Alcotest.(check int) "add 0 ok" 5 (Metrics.Counter.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metrics.Counter.add: negative increment") (fun () ->
      Metrics.Counter.add c (-1))

let test_gauge_basics () =
  let g = Metrics.Gauge.detached () in
  Metrics.Gauge.set g 3.0;
  Metrics.Gauge.add g (-1.5);
  Alcotest.(check (float 1e-9)) "set + add" 1.5 (Metrics.Gauge.value g)

let test_registry_find_or_create () =
  let reg = Metrics.create () in
  let labels = [ ("node", "1"); ("site", "receive") ] in
  let c1 = Metrics.counter reg ~labels "purged" in
  (* Label order must not matter. *)
  let c2 = Metrics.counter reg ~labels:(List.rev labels) "purged" in
  Metrics.Counter.incr c1;
  Alcotest.(check int) "same instance" 1 (Metrics.Counter.value c2);
  let other = Metrics.counter reg ~labels:[ ("node", "2") ] "purged" in
  Alcotest.(check int) "different labels, fresh" 0 (Metrics.Counter.value other);
  Alcotest.(check int) "counter_value reads" 1 (Metrics.counter_value reg ~labels "purged");
  Alcotest.(check int) "absent reads 0" 0 (Metrics.counter_value reg "no_such");
  Metrics.Counter.add other 10;
  Alcotest.(check int) "sum across label sets" 11 (Metrics.sum_counters reg "purged");
  Alcotest.(check int) "registered once each" 2 (List.length (Metrics.instruments reg))

let test_registry_kind_mismatch () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "x");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics.gauge: x already registered as a counter") (fun () ->
      ignore (Metrics.gauge reg "x"))

let test_histogram_quantiles () =
  let h = Metrics.Histogram.detached () in
  Alcotest.check_raises "empty quantile"
    (Invalid_argument "Metrics.Histogram.quantile: empty histogram") (fun () ->
      ignore (Metrics.Histogram.quantile h 0.5));
  for i = 1 to 1000 do
    Metrics.Histogram.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-6)) "sum" 500500.0 (Metrics.Histogram.sum h);
  Alcotest.(check (float 1e-6)) "mean" 500.5 (Metrics.Histogram.mean h);
  Alcotest.(check (float 1e-6)) "max" 1000.0 (Metrics.Histogram.max_value h);
  (* Log-scale buckets: the quantile estimate is an upper bound within
     one sub-bucket (at most 25% relative). *)
  List.iter
    (fun q ->
      let truth = q *. 1000.0 in
      let est = Metrics.Histogram.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q%.2f upper bound (%.1f >= %.1f)" q est truth)
        true (est >= truth);
      Alcotest.(check bool)
        (Printf.sprintf "q%.2f within a sub-bucket (%.1f <= %.1f)" q est (truth *. 1.26))
        true
        (est <= truth *. 1.26))
    [ 0.25; 0.5; 0.9; 0.99 ];
  Alcotest.(check (float 1e-6)) "q1 clamps to max" 1000.0 (Metrics.Histogram.quantile h 1.0);
  (* Extremes land in the under/overflow buckets without blowing up. *)
  let e = Metrics.Histogram.detached () in
  Metrics.Histogram.observe e 0.0;
  Metrics.Histogram.observe e 1e300;
  Alcotest.(check int) "extremes counted" 2 (Metrics.Histogram.count e);
  Alcotest.(check (float 1e-6)) "extreme q1" 1e300 (Metrics.Histogram.quantile e 1.0)

let test_pp_line () =
  let reg = Metrics.create () in
  Metrics.Counter.add (Metrics.counter reg ~labels:[ ("node", "0") ] "c") 7;
  Metrics.Gauge.set (Metrics.gauge reg "g") 2.5;
  Metrics.Histogram.observe (Metrics.histogram reg "h") 1.0;
  let line = Format.asprintf "%a" Metrics.pp_line reg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report mentions %s" needle) true
        (Astring.String.is_infix ~affix:needle line))
    [ "c{node=0}=7"; "g=2.5"; "h=" ]

(* ------------------------------------------------------------------ *)
(* Trace sinks                                                         *)
(* ------------------------------------------------------------------ *)

let test_nop_sink () =
  Alcotest.(check bool) "disabled" false (Trace.enabled Trace.nop);
  Trace.emit Trace.nop (Trace.Suspect { node = 0; suspect = 1 });
  Trace.set_clock Trace.nop (fun () -> 42.0);
  Alcotest.(check (float 1e-9)) "clock stays zero" 0.0 (Trace.now Trace.nop);
  Alcotest.(check int) "no records" 0 (List.length (Trace.records Trace.nop))

let test_memory_sink_ordering () =
  let now = ref 1.25 in
  let tr = Trace.memory ~clock:(fun () -> !now) () in
  Alcotest.(check bool) "enabled" true (Trace.enabled tr);
  Trace.emit tr (Trace.Multicast { node = 0; view_id = 1; sn = 1 });
  now := 2.5;
  Trace.emit tr (Trace.Block { node = 0; view_id = 1 });
  Trace.emit tr (Trace.Unblock { node = 0; view_id = 2 });
  (match Trace.records tr with
  | [ a; b; c ] ->
      Alcotest.(check (float 1e-9)) "first time" 1.25 a.Trace.time;
      Alcotest.(check (float 1e-9)) "second time" 2.5 b.Trace.time;
      Alcotest.(check (list int)) "seq in order" [ 0; 1; 2 ]
        [ a.Trace.seq; b.Trace.seq; c.Trace.seq ];
      (match c.Trace.event with
      | Trace.Unblock { view_id = 2; _ } -> ()
      | ev -> Alcotest.failf "wrong last event: %a" Trace.pp_event ev)
  | l -> Alcotest.failf "expected 3 records, got %d" (List.length l));
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (List.length (Trace.records tr))

let all_event_shapes =
  [
    Trace.Multicast { node = 3; view_id = 2; sn = 17 };
    Trace.Purge { node = 1; view_id = 2; at_step = Trace.At_multicast; sender = 0; sn = 4 };
    Trace.Purge { node = 1; view_id = 2; at_step = Trace.At_receive; sender = 3; sn = 9 };
    Trace.Purge { node = 2; view_id = 3; at_step = Trace.At_install; sender = 1; sn = 1 };
    Trace.ViewInstall { node = 0; view_id = 4; members = [ 0; 2; 5 ] };
    Trace.ViewInstall { node = 0; view_id = 5; members = [] };
    Trace.ConsensusDecide { node = 2; view_id = 4 };
    Trace.Suspect { node = 0; suspect = 4 };
    Trace.Block { node = 1; view_id = 3 };
    Trace.Unblock { node = 1; view_id = 4 };
    Trace.TcpReconnect { node = 2; peer = 0 };
    Trace.TcpDrop { node = 2; peer = 4; reason = "oversize" };
    Trace.TcpDrop { node = 0; peer = -1; reason = "unknown-dst" };
    Trace.Fault { kind = "partition"; node = 1; peer = 3 };
    Trace.Fault { kind = "crash"; node = 2; peer = -1 };
    Trace.Parked { node = 3; view_id = 6 };
    Trace.Merge { node = 3; view_id = 9; parked_ms = 420 };
    Trace.Tx { node = 0; dst = 2; sender = 0; sn = 12; view_id = 3 };
    Trace.Rx { node = 2; src = 0; sender = 0; sn = 12; view_id = 3 };
    Trace.Deliver { node = 2; view_id = 3; sender = 0; sn = 12 };
    Trace.StableMsg { node = 2; sender = 0; sn = 12 };
    Trace.Evict { node = 1; view_id = 3; sender = 0; sn = 11 };
  ]

let test_json_round_trip () =
  List.iteri
    (fun i event ->
      let r = { Trace.time = 0.125 +. (3.7 *. float_of_int i); seq = i; event } in
      match Trace.record_of_json (Trace.record_to_json r) with
      | None -> Alcotest.failf "unparseable: %s" (Trace.record_to_json r)
      | Some r' ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trip %d (%s)" i (Trace.record_to_json r))
            true (r = r'))
    all_event_shapes;
  Alcotest.(check bool) "garbage rejected" true (Trace.record_of_json "{nope}" = None);
  Alcotest.(check bool) "unknown event rejected" true
    (Trace.record_of_json {|{"t":0,"seq":1,"ev":"warp","node":1}|} = None)

let test_jsonl_sink_file () =
  let path = Filename.temp_file "svs_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let now = ref 0.5 in
      let tr = Trace.jsonl ~clock:(fun () -> !now) oc in
      List.iter
        (fun ev ->
          Trace.emit tr ev;
          now := !now +. 1.0)
        all_event_shapes;
      Trace.flush tr;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let records = List.rev_map (fun l -> Option.get (Trace.record_of_json l)) !lines in
      Alcotest.(check int) "one line per event" (List.length all_event_shapes)
        (List.length records);
      List.iteri
        (fun i r ->
          Alcotest.(check int) "seq" i r.Trace.seq;
          Alcotest.(check (float 1e-9)) "clocked" (0.5 +. float_of_int i) r.Trace.time;
          Alcotest.(check bool) "event preserved" true
            (r.Trace.event = List.nth all_event_shapes i))
        records)

let test_ring_sink () =
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Trace.ring: capacity must be positive") (fun () ->
      ignore (Trace.ring ~capacity:0 ()));
  let now = ref 0.0 in
  let tr = Trace.ring ~clock:(fun () -> !now) ~capacity:3 () in
  Alcotest.(check bool) "enabled" true (Trace.enabled tr);
  for sn = 0 to 9 do
    now := float_of_int sn;
    Trace.emit tr (Trace.Multicast { node = 0; view_id = 0; sn })
  done;
  let sns =
    List.map
      (fun r -> match r.Trace.event with Trace.Multicast { sn; _ } -> sn | _ -> -1)
      (Trace.records tr)
  in
  Alcotest.(check (list int)) "keeps the newest, in order" [ 7; 8; 9 ] sns;
  (* Sequence numbers keep counting across evictions. *)
  Alcotest.(check (list int)) "seq preserved" [ 7; 8; 9 ]
    (List.map (fun r -> r.Trace.seq) (Trace.records tr));
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (List.length (Trace.records tr))

let test_tee_sink () =
  let a = Trace.memory () in
  let b = Trace.ring ~capacity:2 () in
  let tr = Trace.tee a b in
  Alcotest.(check bool) "enabled when a branch is" true (Trace.enabled tr);
  List.iter (Trace.emit tr) all_event_shapes;
  Alcotest.(check int) "first branch gets everything" (List.length all_event_shapes)
    (List.length (Trace.records a));
  Alcotest.(check int) "second branch keeps its capacity" 2 (List.length (Trace.records b));
  Alcotest.(check int) "records reads through the tee" (List.length all_event_shapes)
    (List.length (Trace.records tr));
  (* The tee is transparent to the clock too. *)
  Trace.set_clock tr (fun () -> 9.0);
  Trace.emit tr (Trace.Block { node = 0; view_id = 1 });
  (match List.rev (Trace.records a) with
  | last :: _ -> Alcotest.(check (float 1e-9)) "clock forwarded" 9.0 last.Trace.time
  | [] -> Alcotest.fail "no records");
  Alcotest.(check bool) "nop tee disabled" false (Trace.enabled (Trace.tee Trace.nop Trace.nop))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

(* Golden output: hand-checked against the text exposition format.
   Registration order is scrambled on purpose — the exposition must
   sort by (name, labels). The two histogram observations land in
   known log-scale buckets: 1.0 in (1, 1.25], 3.0 in (3, 3.5]. *)
let test_prometheus_golden () =
  let reg = Metrics.create () in
  Metrics.Counter.add (Metrics.counter reg ~labels:[ ("node", "0") ] "requests_total") 3;
  Metrics.Gauge.set (Metrics.gauge reg "queue_depth") 2.5;
  let h = Metrics.histogram reg ~labels:[ ("node", "a\"b\\c\nd") ] "lat" in
  Metrics.Histogram.observe h 1.0;
  Metrics.Histogram.observe h 3.0;
  let expected =
    String.concat "\n"
      [
        "# TYPE lat histogram";
        "lat_bucket{node=\"a\\\"b\\\\c\\nd\",le=\"1.25\"} 1";
        "lat_bucket{node=\"a\\\"b\\\\c\\nd\",le=\"3.5\"} 2";
        "lat_bucket{node=\"a\\\"b\\\\c\\nd\",le=\"+Inf\"} 2";
        "lat_sum{node=\"a\\\"b\\\\c\\nd\"} 4";
        "lat_count{node=\"a\\\"b\\\\c\\nd\"} 2";
        "# TYPE queue_depth gauge";
        "queue_depth 2.5";
        "# TYPE requests_total counter";
        "requests_total{node=\"0\"} 3";
        "";
      ]
  in
  Alcotest.(check string) "golden exposition" expected (Metrics.prometheus_string reg)

let test_prometheus_label_sort () =
  let reg = Metrics.create () in
  (* Same name, two label sets, registered in reverse order. *)
  Metrics.Counter.add (Metrics.counter reg ~labels:[ ("node", "1") ] "c_total") 1;
  Metrics.Counter.add (Metrics.counter reg ~labels:[ ("node", "0") ] "c_total") 2;
  let expected =
    String.concat "\n"
      [ "# TYPE c_total counter"; "c_total{node=\"0\"} 2"; "c_total{node=\"1\"} 1"; "" ]
  in
  Alcotest.(check string) "one TYPE line, labels sorted" expected
    (Metrics.prometheus_string reg);
  (* An empty histogram still exposes _sum/_count and the +Inf bucket. *)
  let reg2 = Metrics.create () in
  ignore (Metrics.histogram reg2 "empty");
  let expected2 =
    String.concat "\n"
      [
        "# TYPE empty histogram";
        "empty_bucket{le=\"+Inf\"} 0";
        "empty_sum 0";
        "empty_count 0";
        "";
      ]
  in
  Alcotest.(check string) "empty histogram" expected2 (Metrics.prometheus_string reg2)

(* ------------------------------------------------------------------ *)
(* Span analyzer                                                       *)
(* ------------------------------------------------------------------ *)

module Span = Svs_telemetry.Span

(* A hand-written two-node run with exact, nearest-rank-checkable
   numbers. Node 0 multicasts sn 0 and sn 1; both nodes deliver both;
   delivery latencies are 10/20/30/40 ms, so p50 = 20 ms and
   p99 = 40 ms by nearest rank. sn 0 goes stable 2 s after submit;
   sn 1 is purged at node 1 instead (and never stable anywhere). *)
let fixture_node0 =
  let ev time seq event = { Trace.time; seq; event } in
  [
    ev 1.0 0 (Trace.Multicast { node = 0; view_id = 0; sn = 0 });
    ev 1.0 1 (Trace.Tx { node = 0; dst = 1; sender = 0; sn = 0; view_id = 0 });
    ev 1.010 2 (Trace.Deliver { node = 0; view_id = 0; sender = 0; sn = 0 });
    ev 2.0 3 (Trace.Multicast { node = 0; view_id = 0; sn = 1 });
    ev 2.0 4 (Trace.Tx { node = 0; dst = 1; sender = 0; sn = 1; view_id = 0 });
    ev 2.030 5 (Trace.Deliver { node = 0; view_id = 0; sender = 0; sn = 1 });
    ev 3.0 6 (Trace.StableMsg { node = 0; sender = 0; sn = 0 });
    ev 4.0 7 (Trace.Block { node = 0; view_id = 0 });
    ev 4.1 8 (Trace.ViewInstall { node = 0; view_id = 1; members = [ 0; 1 ] });
  ]

let fixture_node1 =
  let ev time seq event = { Trace.time; seq; event } in
  [
    ev 1.015 0 (Trace.Rx { node = 1; src = 0; sender = 0; sn = 0; view_id = 0 });
    ev 1.020 1 (Trace.Deliver { node = 1; view_id = 0; sender = 0; sn = 0 });
    ev 2.015 2 (Trace.Rx { node = 1; src = 0; sender = 0; sn = 1; view_id = 0 });
    ev 2.040 3 (Trace.Deliver { node = 1; view_id = 0; sender = 0; sn = 1 });
    ev 2.5 4
      (Trace.Purge { node = 1; view_id = 0; at_step = Trace.At_receive; sender = 0; sn = 1 });
    ev 4.05 5 (Trace.Block { node = 1; view_id = 0 });
    ev 4.1 6 (Trace.ViewInstall { node = 1; view_id = 1; members = [ 0; 1 ] });
  ]

let test_span_timelines () =
  match Span.timelines [ fixture_node0; fixture_node1 ] with
  | [ t0; t1 ] ->
      Alcotest.(check (pair int int)) "first message id" (0, 0) (t0.Span.sender, t0.Span.sn);
      Alcotest.(check (option (float 1e-9))) "submit" (Some 1.0) t0.Span.submit;
      Alcotest.(check (list (pair int (float 1e-9)))) "tx" [ (1, 1.0) ] t0.Span.tx;
      Alcotest.(check (list (pair int (float 1e-9)))) "rx" [ (1, 1.015) ] t0.Span.rx;
      Alcotest.(check (list (pair int (float 1e-9))))
        "deliveries merged chronologically"
        [ (0, 1.010); (1, 1.020) ]
        t0.Span.deliver;
      Alcotest.(check (list (pair int (float 1e-9)))) "stable" [ (0, 3.0) ] t0.Span.stable;
      Alcotest.(check (list (pair int (float 1e-9)))) "no purge" [] t0.Span.purged;
      Alcotest.(check (list (pair int (float 1e-9)))) "sn 1 purged" [ (1, 2.5) ] t1.Span.purged
  | l -> Alcotest.failf "expected 2 timelines, got %d" (List.length l)

let test_span_report () =
  let r = Span.analyze [ fixture_node0; fixture_node1 ] in
  Alcotest.(check (list int)) "nodes" [ 0; 1 ] r.Span.nodes;
  Alcotest.(check int) "messages" 2 r.Span.messages;
  Alcotest.(check int) "deliveries" 4 r.Span.deliveries;
  Alcotest.(check int) "purges" 1 r.Span.purges;
  Alcotest.(check (float 1e-9)) "span: first submit to last delivery" 1.040 r.Span.span;
  Alcotest.(check (float 1e-6)) "throughput" (4.0 /. 1.040) r.Span.msgs_per_s;
  Alcotest.(check (float 1e-9)) "purge effectiveness" 0.2 r.Span.purge_effectiveness;
  (match r.Span.delivery_latency with
  | None -> Alcotest.fail "no delivery latency"
  | Some s ->
      Alcotest.(check int) "lat count" 4 s.Span.count;
      Alcotest.(check (float 1e-9)) "lat mean" 0.025 s.Span.mean;
      Alcotest.(check (float 1e-9)) "lat p50 (nearest rank)" 0.020 s.Span.p50;
      Alcotest.(check (float 1e-9)) "lat p99 (nearest rank)" 0.040 s.Span.p99;
      Alcotest.(check (float 1e-9)) "lat max" 0.040 s.Span.max);
  (match r.Span.remote_latency with
  | None -> Alcotest.fail "no remote latency"
  | Some s ->
      Alcotest.(check int) "remote count" 2 s.Span.count;
      Alcotest.(check (float 1e-9)) "remote p50" 0.020 s.Span.p50);
  (match r.Span.stability_lag with
  | None -> Alcotest.fail "no stability lag"
  | Some s -> Alcotest.(check (float 1e-9)) "stability lag" 2.0 s.Span.p50);
  (match r.Span.purge_latency with
  | None -> Alcotest.fail "no purge latency"
  | Some s -> Alcotest.(check (float 1e-9)) "purge latency" 0.5 s.Span.p50);
  Alcotest.(check int) "view changes" 1 r.Span.view_changes;
  (match r.Span.view_spans with
  | None -> Alcotest.fail "no view spans"
  | Some s ->
      Alcotest.(check int) "two blocked spans" 2 s.Span.count;
      Alcotest.(check (float 1e-9)) "longest block" 0.1 s.Span.max);
  (* sn 1 was delivered but never went stable anywhere, and stability
     tracking was demonstrably active (sn 0 did go stable). *)
  (match r.Span.anomalies with
  | [ Span.Never_stable { messages } ] ->
      Alcotest.(check int) "one never-stable message" 1 messages
  | l -> Alcotest.failf "expected exactly Never_stable, got %d anomalies" (List.length l));
  (* The same run under a tight block threshold also flags the blocks. *)
  let tight = Span.analyze ~block_threshold:0.04 [ fixture_node0; fixture_node1 ] in
  Alcotest.(check int) "tight threshold adds Long_block anomalies" 3
    (List.length tight.Span.anomalies)

(* The same run, but node 0 evicts sn 1 (a later delivery covers it)
   before it can go stable: it is covered, not stuck, so nothing is
   flagged, and the stability lag still counts sn 0 alone. *)
let test_span_evicted_is_covered () =
  let evict =
    { Trace.time = 2.6; seq = 9; event = Trace.Evict { node = 0; view_id = 0; sender = 0; sn = 1 } }
  in
  let r = Span.analyze [ fixture_node0 @ [ evict ]; fixture_node1 ] in
  Alcotest.(check int) "one eviction" 1 r.Span.evictions;
  Alcotest.(check int) "no anomaly" 0 (List.length r.Span.anomalies);
  (match r.Span.stability_lag with
  | Some s -> Alcotest.(check int) "lag over stable messages only" 1 s.Span.count
  | None -> Alcotest.fail "no stability lag");
  match Span.timelines [ fixture_node0 @ [ evict ]; fixture_node1 ] with
  | [ _; t1 ] -> Alcotest.(check (list (pair int (float 1e-9)))) "evicted" [ (0, 2.6) ] t1.Span.evicted
  | l -> Alcotest.failf "expected 2 timelines, got %d" (List.length l)

let test_span_floor_regression () =
  let ev time seq event = { Trace.time; seq; event } in
  let records =
    [
      ev 1.0 0 (Trace.Multicast { node = 0; view_id = 0; sn = 5 });
      ev 1.1 1 (Trace.Deliver { node = 1; view_id = 0; sender = 0; sn = 5 });
      ev 1.2 2 (Trace.Deliver { node = 1; view_id = 0; sender = 0; sn = 5 });
    ]
  in
  let r = Span.analyze [ records ] in
  match r.Span.anomalies with
  | [ Span.Floor_regression { node = 1; sender = 0; sn = 5; prev = 5 } ] -> ()
  | l -> Alcotest.failf "expected one Floor_regression, got %d anomalies" (List.length l)

let test_span_json_and_load () =
  let path = Filename.temp_file "svs_span" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter
        (fun r ->
          output_string oc (Trace.record_to_json r);
          output_char oc '\n')
        fixture_node0;
      output_string oc "this line is garbage and must be skipped\n";
      close_out oc;
      let loaded = Span.load_file path in
      Alcotest.(check int) "garbage skipped" (List.length fixture_node0) (List.length loaded);
      let r = Span.analyze [ loaded; fixture_node1 ] in
      let json = Span.report_to_json r in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "json has %s" needle) true
            (Astring.String.is_infix ~affix:needle json))
        [
          {|"bench":"rt_throughput"|};
          {|"nodes":2|};
          {|"deliveries":4|};
          {|"msgs_per_s":|};
          {|"p99":0.04|};
          {|"never_stable":1|};
        ])

(* ------------------------------------------------------------------ *)
(* Instrumented Group stack                                            *)
(* ------------------------------------------------------------------ *)

(* A 3-member cluster with a slow consumer and a crash mid-run: purging
   and a view change both happen, every trace event is stamped with
   virtual time, and the trace agrees with the protocol's own
   counters — in particular one Purge record per purged message. *)
let run_traced_cluster tracer metrics =
  let e = Engine.create ~seed:11 () in
  let config =
    { Group.default_config with buffer_capacity = Some 8; tracer; metrics }
  in
  let cluster =
    Group.create_cluster e ~members:[ 0; 1; 2 ] ~latency:(Latency.Constant 0.001) ~config ()
  in
  let producer = Group.member cluster 0 in
  let rng = Rng.create ~seed:7 in
  let sent = ref 0 in
  ignore
    (Engine.every e ~period:0.01 (fun () ->
         let item = Rng.int rng 3 in
         (match Group.multicast producer ~ann:(Annotation.Tag item) !sent with
         | Ok _ -> incr sent
         | Error _ -> ());
         !sent < 200));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> Group.crash cluster 2));
  Engine.run e;
  (cluster, !sent)

let count_events p records =
  List.length (List.filter (fun r -> p r.Trace.event) records)

let check_trace_matches_cluster cluster sent records =
  let total_purged =
    List.fold_left (fun acc m -> acc + Group.purged m) 0 (Group.members cluster)
  in
  Alcotest.(check bool) "something was purged" true (total_purged > 0);
  Alcotest.(check int) "one Purge record per purged message" total_purged
    (count_events (function Trace.Purge _ -> true | _ -> false) records);
  (* Per-site split agrees with the per-site counters. *)
  List.iter
    (fun site ->
      let by_counters =
        List.fold_left (fun acc m -> acc + Group.purged_at m site) 0 (Group.members cluster)
      in
      Alcotest.(check int)
        (Printf.sprintf "Purge records at %s"
           (match site with
           | Trace.At_multicast -> "multicast"
           | Trace.At_receive -> "receive"
           | Trace.At_install -> "install"))
        by_counters
        (count_events
           (function Trace.Purge { at_step; _ } -> at_step = site | _ -> false)
           records))
    [ Trace.At_multicast; Trace.At_receive; Trace.At_install ];
  Alcotest.(check int) "one Multicast record per accepted multicast" sent
    (count_events (function Trace.Multicast _ -> true | _ -> false) records);
  (* The crash forced a view change on the survivors. *)
  let installs = count_events (function Trace.ViewInstall _ -> true | _ -> false) records in
  Alcotest.(check bool) "view installs traced" true (installs >= 2);
  Alcotest.(check bool) "blocks traced" true
    (count_events (function Trace.Block _ -> true | _ -> false) records >= 2);
  Alcotest.(check bool) "unblocks traced" true
    (count_events (function Trace.Unblock _ -> true | _ -> false) records >= 2);
  Alcotest.(check bool) "decisions traced" true
    (count_events (function Trace.ConsensusDecide _ -> true | _ -> false) records >= 2);
  (* Events are stamped with the engine's virtual time, in order. *)
  List.iter
    (fun r -> Alcotest.(check bool) "virtual timestamp" true (r.Trace.time > 0.0))
    records;
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Trace.time <= b.Trace.time && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (sorted records)

let test_group_memory_trace () =
  let tracer = Trace.memory () in
  let metrics = Metrics.create () in
  let cluster, sent = run_traced_cluster tracer (Some metrics) in
  let records = Trace.records tracer in
  check_trace_matches_cluster cluster sent records;
  (* The registry agrees with the accessors too. *)
  let total_purged =
    List.fold_left (fun acc m -> acc + Group.purged m) 0 (Group.members cluster)
  in
  Alcotest.(check int) "registry purge total" total_purged
    (Metrics.sum_counters metrics "svs_purged_total");
  Alcotest.(check bool) "engine events counted" true
    (Metrics.counter_value metrics "sim_events_total" > 0);
  Alcotest.(check bool) "network metrics counted" true
    (Metrics.counter_value metrics "net_messages_delivered_total" > 0)

(* The acceptance scenario: a simulated run writing JSONL whose Purge
   line count equals the protocol's purged_count. *)
let test_group_jsonl_trace () =
  let path = Filename.temp_file "svs_group" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let tracer = Trace.jsonl oc in
      let cluster, sent = run_traced_cluster tracer None in
      Trace.flush tracer;
      close_out oc;
      let ic = open_in path in
      let records = ref [] in
      (try
         while true do
           match Trace.record_of_json (input_line ic) with
           | Some r -> records := r :: !records
           | None -> Alcotest.fail "unparseable JSONL line"
         done
       with End_of_file -> close_in ic);
      check_trace_matches_cluster cluster sent (List.rev !records))

let () =
  Alcotest.run "svs_telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
          Alcotest.test_case "find-or-create" `Quick test_registry_find_or_create;
          Alcotest.test_case "kind mismatch" `Quick test_registry_kind_mismatch;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "one-line report" `Quick test_pp_line;
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "prometheus sorting" `Quick test_prometheus_label_sort;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nop sink" `Quick test_nop_sink;
          Alcotest.test_case "memory ordering" `Quick test_memory_sink_ordering;
          Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "jsonl file" `Quick test_jsonl_sink_file;
          Alcotest.test_case "ring sink" `Quick test_ring_sink;
          Alcotest.test_case "tee sink" `Quick test_tee_sink;
        ] );
      ( "span",
        [
          Alcotest.test_case "timelines" `Quick test_span_timelines;
          Alcotest.test_case "report stats" `Quick test_span_report;
          Alcotest.test_case "evicted counts as covered" `Quick test_span_evicted_is_covered;
          Alcotest.test_case "floor regression" `Quick test_span_floor_regression;
          Alcotest.test_case "jsonl load + report json" `Quick test_span_json_and_load;
        ] );
      ( "group integration",
        [
          Alcotest.test_case "memory trace + registry" `Quick test_group_memory_trace;
          Alcotest.test_case "jsonl acceptance run" `Quick test_group_jsonl_trace;
        ] );
    ]
