(* Tests for the simulation substrate: heap, RNG, engine. *)

module Heap = Svs_sim.Heap
module Rng = Svs_sim.Rng
module Engine = Svs_sim.Engine

(* --- Heap --- *)

let test_heap_order () =
  let h = Heap.create ~leq:(fun a b -> a <= b) () in
  List.iter (Heap.add h) [ 5; 3; 8; 1; 9; 2; 7; 4; 6; 0 ];
  Alcotest.(check int) "length" 10 (Heap.length h);
  let drained = List.init 10 (fun _ -> Heap.pop_exn h) in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] drained;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_peek_pop () =
  let h = Heap.create ~leq:(fun a b -> a <= b) () in
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h);
  Heap.add h 42;
  Alcotest.(check (option int)) "peek" (Some 42) (Heap.peek h);
  Alcotest.(check int) "peek does not remove" 1 (Heap.length h)

let test_heap_to_sorted_list () =
  let h = Heap.create ~leq:(fun a b -> a <= b) () in
  List.iter (Heap.add h) [ 3; 1; 2 ];
  Alcotest.(check (list int)) "sorted list" [ 1; 2; 3 ] (Heap.to_sorted_list h);
  Alcotest.(check int) "unchanged" 3 (Heap.length h)

let test_heap_duplicates () =
  let h = Heap.create ~leq:(fun a b -> a <= b) () in
  List.iter (Heap.add h) [ 2; 2; 1; 1; 2 ];
  Alcotest.(check (list int)) "dups kept" [ 1; 1; 2; 2; 2 ] (Heap.to_sorted_list h)

let heap_property_sorted =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~leq:(fun a b -> a <= b) () in
      List.iter (Heap.add h) xs;
      let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort compare xs)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 in
  let b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 in
  let b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (x >= 0 && x < 10)
  done

let test_rng_int_in () =
  let r = Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let x = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (x >= -5 && x <= 5)
  done

let test_rng_float_bounds () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:6 in
  let n = 20000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential r ~mean:3.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "exp mean ~3 (got %g)" mean)
    true
    (mean > 2.8 && mean < 3.2)

let test_rng_normal_moments () =
  let r = Rng.create ~seed:8 in
  let n = 20000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.normal r ~mu:5.0 ~sigma:2.0 in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) (Printf.sprintf "mu (got %g)" mean) true (Float.abs (mean -. 5.0) < 0.1);
  Alcotest.(check bool) (Printf.sprintf "sigma^2 (got %g)" var) true (Float.abs (var -. 4.0) < 0.3)

let test_rng_geometric () =
  let r = Rng.create ~seed:9 in
  let n = 20000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Rng.geometric r ~p:0.5
  done;
  (* mean of failures-before-success = (1-p)/p = 1 *)
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "geom mean ~1 (got %g)" mean) true (mean > 0.9 && mean < 1.1)

let test_rng_poisson () =
  let r = Rng.create ~seed:10 in
  let n = 20000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Rng.poisson r ~lambda:4.0
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "poisson mean ~4 (got %g)" mean) true (mean > 3.8 && mean < 4.2)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:11 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_zipf_support_and_skew () =
  let r = Rng.create ~seed:12 in
  let z = Rng.Zipf.create ~n:20 ~s:1.0 in
  let counts = Array.make 21 0 in
  for _ = 1 to 20000 do
    let k = Rng.Zipf.sample z r in
    Alcotest.(check bool) "rank in [1,20]" true (k >= 1 && k <= 20);
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 1 most frequent" true (counts.(1) > counts.(2));
  Alcotest.(check bool) "rank 2 beats rank 10" true (counts.(2) > counts.(10))

let test_zipf_probability_sums_to_one () =
  let z = Rng.Zipf.create ~n:50 ~s:1.2 in
  let total = ref 0.0 in
  for k = 1 to 50 do
    total := !total +. Rng.Zipf.probability z k
  done;
  Alcotest.(check bool) "sums to 1" true (Float.abs (!total -. 1.0) < 1e-9)

(* --- Engine --- *)

let test_engine_runs_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_at_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "insertion order at ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         log := "a" :: !log;
         ignore (Engine.schedule e ~delay:0.5 (fun () -> log := "b" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 1.5 (Engine.now e)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  Alcotest.(check bool) "cancelled flag" true (Engine.cancelled h)

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "events before horizon" 5 !count;
  Alcotest.(check (float 1e-9)) "clock at horizon" 5.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "remaining events" 10 !count

let test_engine_past_scheduling_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "schedule_at in past" (Invalid_argument
    "Engine.schedule_at: time 0.5 is in the past (now 1)") (fun () ->
      ignore (Engine.schedule_at e ~time:0.5 (fun () -> ())))

let test_engine_every () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore
    (Engine.every e ~period:1.0 (fun () ->
         incr count;
         !count < 4));
  Engine.run e;
  Alcotest.(check int) "periodic stops when f returns false" 4 !count;
  Alcotest.(check (float 1e-9)) "clock" 4.0 (Engine.now e)

let test_engine_every_cancel () =
  let e = Engine.create () in
  let count = ref 0 in
  let h =
    Engine.every e ~period:1.0 (fun () ->
        incr count;
        true)
  in
  ignore (Engine.schedule e ~delay:3.5 (fun () -> Engine.cancel h));
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "stopped by cancel" 3 !count

let test_engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec reschedule () =
    incr count;
    ignore (Engine.schedule e ~delay:1.0 reschedule)
  in
  ignore (Engine.schedule e ~delay:1.0 reschedule);
  Engine.run ~max_events:7 e;
  Alcotest.(check int) "bounded" 7 !count

(* An executed event lets go of its closure: the heap's spare slots
   keep popped events, and a long-lived engine (the runtime loop's)
   must not keep alive what their closures captured. *)
let[@inline never] schedule_capturing engine released =
  let captured = Bytes.create 64 in
  Weak.set released 0 (Some captured);
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> ignore (Bytes.length captured)))

let test_engine_releases_run_events () =
  let engine = Engine.create () in
  let released = Weak.create 1 in
  schedule_capturing engine released;
  Engine.run engine;
  Gc.full_major ();
  Alcotest.(check bool) "closure released" false (Weak.check released 0);
  Alcotest.(check int) "the engine outlives it" 0 (Engine.pending engine)

let test_engine_pending () =
  let e = Engine.create () in
  let h1 = Engine.schedule e ~delay:1.0 (fun () -> ()) in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  Engine.cancel h1;
  Alcotest.(check int) "one pending after cancel" 1 (Engine.pending e)

(* Enumeration API: ready lists the same-time group in scheduling
   order; step_ready executes an arbitrary member while keeping the
   rest pending; distinct timestamps are rejected. *)

let test_engine_ready_group () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> ()));
  let a = Engine.schedule e ~delay:1.0 (fun () -> ()) in
  let b = Engine.schedule e ~delay:1.0 (fun () -> ()) in
  let c = Engine.schedule e ~delay:1.0 (fun () -> ()) in
  Engine.cancel b;
  let ready = Engine.ready e in
  Alcotest.(check int) "two ready (cancelled excluded)" 2 (List.length ready);
  Alcotest.(check bool) "scheduling order" true
    (List.map Engine.handle_seq ready
    = List.sort compare (List.map Engine.handle_seq [ a; c ]))

let test_engine_step_ready_out_of_order () =
  let e = Engine.create () in
  let log = ref [] in
  let tag name () = log := name :: !log in
  ignore (Engine.schedule e ~delay:1.0 (tag "a"));
  ignore (Engine.schedule e ~delay:1.0 (tag "b"));
  ignore (Engine.schedule e ~delay:1.0 (tag "c"));
  (match Engine.ready e with
  | [ _; h2; _ ] -> Engine.step_ready e h2
  | _ -> Alcotest.fail "expected a 3-event ready group");
  Alcotest.(check (list string)) "picked the middle one" [ "b" ] (List.rev !log);
  Alcotest.(check int) "others still pending" 2 (Engine.pending e);
  (* The rest of the group is still enumerable, in order. *)
  List.iter (Engine.step_ready e) (Engine.ready e);
  List.iter (Engine.step_ready e) (Engine.ready e);
  Alcotest.(check (list string)) "rest in order" [ "b"; "a"; "c" ] (List.rev !log)

let test_engine_step_ready_rejects_future () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> ()));
  let later = Engine.schedule e ~delay:2.0 (fun () -> ()) in
  Alcotest.check_raises "future event rejected"
    (Invalid_argument "Engine.step_ready: event is not ready") (fun () ->
      Engine.step_ready e later)

let test_engine_step_is_ready_head () =
  (* step must agree with the enumeration API: it always executes the
     head of [ready], whatever order events were inserted in. *)
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:3.0 (fun () -> ()));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> ()));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> ()));
  for _ = 1 to 3 do
    let head = List.hd (Engine.ready e) in
    let seq = Engine.handle_seq head in
    ignore (Engine.step e);
    Alcotest.(check bool) "executed the ready head" true
      (List.for_all (fun h -> Engine.handle_seq h <> seq) (Engine.ready e))
  done

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "svs_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "drains sorted" `Quick test_heap_order;
          Alcotest.test_case "peek/pop on empty" `Quick test_heap_peek_pop;
          Alcotest.test_case "to_sorted_list" `Quick test_heap_to_sorted_list;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          q heap_property_sorted;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric;
          Alcotest.test_case "poisson mean" `Quick test_rng_poisson;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "zipf support and skew" `Quick test_zipf_support_and_skew;
          Alcotest.test_case "zipf probabilities" `Quick test_zipf_probability_sums_to_one;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_runs_in_time_order;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_at_same_time;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "past rejected" `Quick test_engine_past_scheduling_rejected;
          Alcotest.test_case "every" `Quick test_engine_every;
          Alcotest.test_case "every cancel" `Quick test_engine_every_cancel;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "pending" `Quick test_engine_pending;
          Alcotest.test_case "run events released" `Quick test_engine_releases_run_events;
          Alcotest.test_case "ready group" `Quick test_engine_ready_group;
          Alcotest.test_case "step_ready out of order" `Quick
            test_engine_step_ready_out_of_order;
          Alcotest.test_case "step_ready rejects future" `Quick
            test_engine_step_ready_rejects_future;
          Alcotest.test_case "step is ready head" `Quick
            test_engine_step_is_ready_head;
        ] );
    ]
