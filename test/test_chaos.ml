(* Tests for the chaos harness: scenario plans (determinism and
   well-formedness), seeded end-to-end runs under the safety oracle,
   replayability, the oracle's mutation self-test, and the table of
   inverted self-checks. *)

module Rng = Svs_sim.Rng
module Scenario = Svs_chaos.Scenario
module Oracle = Svs_chaos.Oracle
module Runner = Svs_chaos.Runner
module Self_test = Svs_chaos.Self_test
module Trace = Svs_telemetry.Trace

(* A quick config so the whole suite stays fast: the CI chaos sweep
   (scripts/ci.sh) exercises the default scale. *)
let quick =
  { Runner.default_config with nodes = 4; horizon = 5.0; settle = 3.0; send_period = 0.05 }

(* --- Scenario plans --- *)

let plan_of scenario ~seed ~n ~horizon =
  scenario.Scenario.plan ~rng:(Rng.create ~seed) ~n ~horizon

let test_plans_deterministic () =
  List.iter
    (fun sc ->
      let p1 = plan_of sc ~seed:7 ~n:5 ~horizon:10.0 in
      let p2 = plan_of sc ~seed:7 ~n:5 ~horizon:10.0 in
      Alcotest.(check bool)
        (sc.Scenario.name ^ ": same seed, same plan")
        true (p1 = p2))
    Scenario.all;
  (* And the seed actually matters for the fault-injecting scenarios. *)
  let differs sc =
    plan_of sc ~seed:1 ~n:5 ~horizon:10.0 <> plan_of sc ~seed:2 ~n:5 ~horizon:10.0
  in
  Alcotest.(check bool) "some seed-sensitivity" true
    (List.exists differs (List.filter (fun s -> s.Scenario.name <> "calm") Scenario.all))

(* Replay a plan's effect on abstract state and check the documented
   invariants: the anchor (node 0) is never crashed/paused/removed, at
   least two members survive, and every disturbance is undone before
   the horizon. *)
let check_plan_invariants sc ~seed ~n ~horizon =
  let plan = plan_of sc ~seed ~n ~horizon in
  let name fmt = Printf.ksprintf (fun s -> sc.Scenario.name ^ ": " ^ s) fmt in
  let removed = ref [] in
  let paused = ref [] in
  let partitions = ref [] in
  let split = ref [] in
  let spiked = ref false in
  List.iter
    (fun { Scenario.at; action } ->
      Alcotest.(check bool) (name "time in window") true (at >= 0.0 && at <= horizon);
      match action with
      | Scenario.Crash p ->
          Alcotest.(check bool) (name "anchor never crashed") true (p <> 0);
          removed := p :: !removed
      | Scenario.Leave { node; _ } ->
          Alcotest.(check bool) (name "anchor never removed") true (node <> 0);
          removed := node :: !removed
      | Scenario.Rejoin p ->
          Alcotest.(check bool) (name "rejoin follows a removal") true (List.mem p !removed);
          removed := List.filter (fun q -> q <> p) !removed
      | Scenario.Pause p ->
          Alcotest.(check bool) (name "anchor never paused") true (p <> 0);
          paused := p :: !paused
      | Scenario.Resume p -> paused := List.filter (fun q -> q <> p) !paused
      | Scenario.Partition (a, b) -> partitions := (min a b, max a b) :: !partitions
      | Scenario.Heal (a, b) ->
          partitions := List.filter (fun w -> w <> (min a b, max a b)) !partitions
      | Scenario.Split sets ->
          (match List.find_opt (List.mem 0) sets with
          | None -> Alcotest.fail (name "anchor in some split set")
          | Some anchor_set ->
              Alcotest.(check bool)
                (name "anchor side is a strict majority")
                true
                (2 * List.length anchor_set > n));
          Alcotest.(check (list int)) (name "split covers the group") (List.init n Fun.id)
            (List.sort compare (List.concat sets));
          split := sets
      | Scenario.Heal_split -> split := []
      | Scenario.Set_latency _ -> spiked := true
      | Scenario.Restore_latency -> spiked := false)
    plan;
  Alcotest.(check bool) (name "two survivors") true
    (n - List.length (List.sort_uniq compare !removed) >= 2);
  Alcotest.(check (list int)) (name "every pause resumed") [] !paused;
  Alcotest.(check (list (pair int int))) (name "every partition healed") [] !partitions;
  (* Split scenarios with [heal_at_settle = false] deliberately leave
     the group split at the horizon; everyone else must heal. *)
  if sc.Scenario.heal_at_settle then
    Alcotest.(check bool) (name "every split healed") true (!split = []);
  Alcotest.(check bool) (name "latency restored") false !spiked

let test_plan_invariants () =
  List.iter
    (fun sc ->
      for seed = 1 to 25 do
        check_plan_invariants sc ~seed ~n:5 ~horizon:10.0;
        check_plan_invariants sc ~seed ~n:3 ~horizon:8.0
      done)
    Scenario.all

let test_plans_sorted () =
  List.iter
    (fun sc ->
      let plan = plan_of sc ~seed:11 ~n:6 ~horizon:10.0 in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a.Scenario.at <= b.Scenario.at && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) (sc.Scenario.name ^ ": time-ordered") true (sorted plan))
    Scenario.all

(* --- End-to-end runs under the oracle --- *)

let core_scenarios =
  List.filter_map Scenario.find
    [ "crash"; "partition-heal"; "slow-receiver"; "churn"; "crash-restart"; "exclude-rejoin" ]

let test_sweep_passes_both_modes () =
  Alcotest.(check int) "6 scenarios found" 6 (List.length core_scenarios);
  let outcomes =
    Runner.sweep ~config:quick ~modes:[ Oracle.Vs; Oracle.Svs ] ~scenarios:core_scenarios
      ~seeds:[ 1; 2; 3 ] ()
  in
  Alcotest.(check int) "grid size" (6 * 2 * 3) (List.length outcomes);
  List.iter
    (fun (o : Runner.outcome) ->
      if not (Oracle.ok o.report) then
        Alcotest.fail (Format.asprintf "chaos violation: %a" Oracle.pp_report o.report))
    outcomes;
  (* The runs actually did something. *)
  List.iter
    (fun (o : Runner.outcome) ->
      Alcotest.(check bool) "messages flowed" true (o.sent > 0);
      Alcotest.(check bool) "views installed" true (o.report.Oracle.installs > 0))
    outcomes

let test_calm_run_has_no_faults () =
  let calm = Option.get (Scenario.find "calm") in
  let o = Runner.run_one ~config:quick ~mode:Oracle.Svs ~scenario:calm ~seed:5 () in
  Alcotest.(check int) "no faults injected" 0 o.Runner.faults;
  Alcotest.(check bool) "passes" true (Oracle.ok o.Runner.report)

let test_replayable () =
  let scenario = Option.get (Scenario.find "mayhem") in
  let a = Runner.run_one ~config:quick ~mode:Oracle.Svs ~scenario ~seed:9 () in
  let b = Runner.run_one ~config:quick ~mode:Oracle.Svs ~scenario ~seed:9 () in
  Alcotest.(check int) "same deliveries" a.Runner.report.Oracle.deliveries
    b.Runner.report.Oracle.deliveries;
  Alcotest.(check int) "same installs" a.Runner.report.Oracle.installs
    b.Runner.report.Oracle.installs;
  Alcotest.(check int) "same faults" a.Runner.faults b.Runner.faults;
  Alcotest.(check int) "same sends" a.Runner.sent b.Runner.sent;
  Alcotest.(check int) "same engine schedule" a.Runner.events b.Runner.events

let test_fault_events_traced () =
  let scenario = Option.get (Scenario.find "partition-heal") in
  let tracer = Trace.memory () in
  let o = Runner.run_one ~tracer ~config:quick ~mode:Oracle.Vs ~scenario ~seed:3 () in
  let traced =
    List.length
      (List.filter
         (function { Trace.event = Trace.Fault _; _ } -> true | _ -> false)
         (Trace.records tracer))
  in
  Alcotest.(check bool) "faults happened" true (o.Runner.faults > 0);
  Alcotest.(check int) "every applied fault traced" o.Runner.faults traced

(* --- The oracle bites: mutation self-test --- *)

let test_mutation_caught () =
  (* A deliberately broken purge (one safety-relevant delivery dropped
     from the record) must be caught and reported with the seed and the
     violating view pair. *)
  List.iter
    (fun (mode, scenario_name) ->
      let scenario = Option.get (Scenario.find scenario_name) in
      let o =
        Runner.run_one ~mutation:Oracle.Drop_cover ~config:quick ~mode ~scenario ~seed:4 ()
      in
      let r = o.Runner.report in
      Alcotest.(check bool) (scenario_name ^ ": caught") false (Oracle.ok r);
      Alcotest.(check bool) (scenario_name ^ ": mutation recorded") true (r.Oracle.mutated <> None);
      Alcotest.(check int) (scenario_name ^ ": seed reported") 4 r.Oracle.seed;
      Alcotest.(check string) (scenario_name ^ ": scenario reported") scenario_name
        r.Oracle.scenario;
      Alcotest.(check bool) (scenario_name ^ ": violating view pair named") true
        (List.exists (fun v -> Oracle.view_pair v <> None) r.Oracle.violations))
    [ (Oracle.Vs, "crash"); (Oracle.Svs, "crash"); (Oracle.Svs, "slow-receiver") ]

let test_unmutated_is_clean () =
  (* Control for the mutation test: the same runs pass untouched. *)
  let scenario = Option.get (Scenario.find "crash") in
  let o = Runner.run_one ~config:quick ~mode:Oracle.Svs ~scenario ~seed:4 () in
  Alcotest.(check bool) "clean without mutation" true (Oracle.ok o.Runner.report)

let test_flight_recorder_on_failure () =
  let scenario = Option.get (Scenario.find "crash") in
  (* A passing run carries no flight records (postmortems are for
     failures); the same run mutated red must ship them, virtual-time
     stamped and in order, even when the caller traced nothing. *)
  let clean = Runner.run_one ~config:quick ~mode:Oracle.Svs ~scenario ~seed:4 () in
  Alcotest.(check int) "clean run: empty flight" 0 (List.length clean.Runner.flight);
  let red =
    Runner.run_one ~mutation:Oracle.Drop_cover ~config:quick ~mode:Oracle.Svs ~scenario
      ~seed:4 ()
  in
  Alcotest.(check bool) "red run" false (Oracle.ok red.Runner.report);
  let flight = red.Runner.flight in
  Alcotest.(check bool) "flight recorded" true (flight <> []);
  Alcotest.(check bool) "bounded" true (List.length flight <= 2048);
  let rec chronological = function
    | a :: (b :: _ as rest) -> a.Trace.time <= b.Trace.time && chronological rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (chronological flight);
  (* The ring kept the END of the run: its last record is late in
     virtual time, and every record is JSONL-serialisable. *)
  (match List.rev flight with
  | last :: _ ->
      Alcotest.(check bool) "kept the tail" true (last.Trace.time > quick.Runner.horizon /. 2.0)
  | [] -> ());
  List.iter
    (fun r ->
      match Trace.record_of_json (Trace.record_to_json r) with
      | Some r' -> Alcotest.(check bool) "round-trips" true (r = r')
      | None -> Alcotest.fail "flight record does not serialise")
    flight;
  (* An outer tracer still sees the stream alongside the ring. *)
  let tracer = Trace.memory () in
  let o = Runner.run_one ~tracer ~config:quick ~mode:Oracle.Svs ~scenario ~seed:4 () in
  Alcotest.(check bool) "outer tracer still fed" true (Trace.records tracer <> []);
  Alcotest.(check bool) "outer run clean" true (Oracle.ok o.Runner.report)

(* --- Crash recovery under the oracle --- *)

(* Find a seed whose crash-restart plan actually completes a rejoin in
   the quick config (the planned rejoin can land while the group is
   still excluding the victim, in which case the retry may run out of
   window). *)
let rejoining_seed ~recover =
  let scenario = Option.get (Scenario.find "crash-restart") in
  let config = { quick with recover } in
  let rec hunt seed =
    if seed > 30 then Alcotest.fail "no seed produced a completed rejoin"
    else begin
      let tracer = Trace.memory () in
      let o = Runner.run_one ~tracer ~config ~mode:Oracle.Svs ~scenario ~seed () in
      let synced =
        List.exists
          (function { Trace.event = Trace.StateTransfer _; _ } -> true | _ -> false)
          (Trace.records tracer)
      in
      if synced then (seed, o) else hunt (seed + 1)
    end
  in
  hunt 1

let test_recovered_rejoin_is_safe () =
  (* A member crashes, restarts from its durable state and rejoins via
     JOIN/SYNC: the full §4 oracle must stay green. *)
  let _seed, o = rejoining_seed ~recover:true in
  if not (Oracle.ok o.Runner.report) then
    Alcotest.fail (Format.asprintf "recovered rejoin violated: %a" Oracle.pp_report o.Runner.report)

let test_amnesiac_rejoin_is_caught () =
  (* The same path with recovery disabled: the restarted member reuses
     sequence numbers and re-delivers its own messages, which must show
     up as Integrity/FIFO violations. *)
  let seed, o = rejoining_seed ~recover:false in
  Alcotest.(check bool)
    (Printf.sprintf "amnesiac restart caught (seed %d)" seed)
    false
    (Oracle.ok o.Runner.report);
  Alcotest.(check bool) "flagged as duplication or FIFO breakage" true
    (List.exists
       (function
         | Svs_core.Checker.Duplicated _ | Svs_core.Checker.Fifo_order _ -> true
         | _ -> false)
       o.Runner.report.Oracle.violations)

let test_restart_duplicate_mutation_caught () =
  (* Self-test for the recovery clause of the oracle: duplicating a
     pre-crash delivery after the rejoin must flip the verdict. *)
  let scenario = Option.get (Scenario.find "crash-restart") in
  let seed, _ = rejoining_seed ~recover:true in
  let o =
    Runner.run_one ~mutation:Oracle.Duplicate_after_restart ~config:quick ~mode:Oracle.Svs
      ~scenario ~seed ()
  in
  let r = o.Runner.report in
  Alcotest.(check bool) "caught" false (Oracle.ok r);
  Alcotest.(check bool) "mutation recorded" true (r.Oracle.mutated <> None);
  Alcotest.(check bool) "flagged as duplication" true
    (List.exists
       (function Svs_core.Checker.Duplicated _ -> true | _ -> false)
       r.Oracle.violations)

(* --- Partition survival: park, merge, and the primary chain --- *)

let split_scenarios =
  List.filter_map Scenario.find [ "group-split"; "split-heal-merge"; "flapping-split" ]

let test_split_sweep_passes () =
  Alcotest.(check int) "3 split scenarios" 3 (List.length split_scenarios);
  let outcomes =
    Runner.sweep ~config:quick ~modes:[ Oracle.Vs; Oracle.Svs ] ~scenarios:split_scenarios
      ~seeds:[ 1; 2; 3 ] ()
  in
  List.iter
    (fun (o : Runner.outcome) ->
      if not (Oracle.ok o.report) then
        Alcotest.fail (Format.asprintf "split violation: %a" Oracle.pp_report o.report))
    outcomes;
  Alcotest.(check bool) "someone parked across the sweep" true
    (List.exists (fun (o : Runner.outcome) -> o.parked > 0) outcomes)

let test_split_heal_merges_back () =
  (* A split-heal-merge run that actually parked someone must re-admit
     the parked member: a Merge trace event closes the Parked one, and
     the runner's re-convergence contract holds. *)
  let scenario = Option.get (Scenario.find "split-heal-merge") in
  let rec hunt seed =
    if seed > 30 then Alcotest.fail "no seed parked anyone"
    else begin
      let tracer = Trace.memory () in
      let o = Runner.run_one ~tracer ~config:quick ~mode:Oracle.Svs ~scenario ~seed () in
      if o.Runner.parked = 0 then hunt (seed + 1) else (seed, o, Trace.records tracer)
    end
  in
  let seed, o, records = hunt 1 in
  Alcotest.(check bool)
    (Printf.sprintf "run safe (seed %d)" seed)
    true
    (Oracle.ok o.Runner.report);
  Alcotest.(check bool) "Parked traced" true
    (List.exists (function { Trace.event = Trace.Parked _; _ } -> true | _ -> false) records);
  Alcotest.(check bool) "Merge traced" true
    (List.exists (function { Trace.event = Trace.Merge _; _ } -> true | _ -> false) records)

let test_no_merge_caught () =
  (* The inverted self-check behind svs_chaos --self-test no-merge:
     members that fall out of the primary component and never probe
     back in must break the re-convergence contract. *)
  let scenario = Option.get (Scenario.find "split-heal-merge") in
  let config = { quick with Runner.merge = false } in
  let o = Runner.run_one ~config ~mode:Oracle.Svs ~scenario ~seed:1 () in
  Alcotest.(check bool) "flagged" false (Oracle.ok o.Runner.report);
  Alcotest.(check bool) "as a convergence violation" true
    (List.exists
       (function Svs_core.Checker.Not_converged _ -> true | _ -> false)
       o.Runner.report.Oracle.violations)

let test_split_brain_mutation_caught () =
  (* Self-test for the primary-chain contract: forging a divergent
     minority view into the record must flip the verdict, whether the
     run had a real partition or not. *)
  List.iter
    (fun scenario_name ->
      let scenario = Option.get (Scenario.find scenario_name) in
      let o =
        Runner.run_one ~mutation:Oracle.Split_brain ~config:quick ~mode:Oracle.Svs ~scenario
          ~seed:2 ()
      in
      let r = o.Runner.report in
      Alcotest.(check bool) (scenario_name ^ ": caught") false (Oracle.ok r);
      Alcotest.(check bool)
        (scenario_name ^ ": mutation recorded")
        true
        (r.Oracle.mutated <> None);
      Alcotest.(check bool)
        (scenario_name ^ ": flagged as split brain")
        true
        (List.exists
           (function Svs_core.Checker.Split_brain _ -> true | _ -> false)
           r.Oracle.violations))
    [ "group-split"; "calm" ]

let test_mode_labels () =
  Alcotest.(check string) "vs" "vs" (Oracle.mode_label Oracle.Vs);
  Alcotest.(check string) "svs" "svs" (Oracle.mode_label Oracle.Svs);
  Alcotest.(check bool) "roundtrip vs" true (Oracle.mode_of_label "vs" = Some Oracle.Vs);
  Alcotest.(check bool) "roundtrip svs" true (Oracle.mode_of_label "svs" = Some Oracle.Svs);
  Alcotest.(check bool) "unknown" true (Oracle.mode_of_label "nope" = None)

(* --- Overload: semantic shedding under a paused reader --- *)

(* The overload scenario runs at the default scale: the shed budget
   and the backlog budget in the scenario are calibrated against it
   (the pause length scales with the horizon). *)

let test_overload_sheds_within_budget () =
  let scenario = Option.get (Scenario.find "overload") in
  let o =
    Runner.run_one ~config:Runner.default_config ~mode:Oracle.Svs ~scenario ~seed:1 ()
  in
  Alcotest.(check bool) "oracle passes with shedding on" true (Oracle.ok o.Runner.report);
  Alcotest.(check bool) "shedding fired" true (o.Runner.shed > 0);
  Alcotest.(check (option bool)) "peak backlog within the declared budget" (Some false)
    o.Runner.over_budget;
  (* VS mode carries no semantic information — nothing is sheddable
     and the budget verdict does not apply. *)
  let vs =
    Runner.run_one ~config:Runner.default_config ~mode:Oracle.Vs ~scenario ~seed:1 ()
  in
  Alcotest.(check bool) "vs mode passes" true (Oracle.ok vs.Runner.report);
  Alcotest.(check int) "vs mode sheds nothing" 0 vs.Runner.shed;
  Alcotest.(check (option bool)) "no budget verdict in vs mode" None vs.Runner.over_budget

let test_overload_no_shed_blows_budget () =
  (* The inverted self-check: with shedding disabled the same run
     must pile the paused member's backlog past the budget — proof
     the budget is tight enough that the shed-on result means
     something. Correctness is unaffected either way. *)
  let scenario = Option.get (Scenario.find "overload") in
  let config = { Runner.default_config with shed = false } in
  let o = Runner.run_one ~config ~mode:Oracle.Svs ~scenario ~seed:1 () in
  Alcotest.(check bool) "still safe without shedding" true (Oracle.ok o.Runner.report);
  Alcotest.(check int) "nothing shed" 0 o.Runner.shed;
  Alcotest.(check (option bool)) "backlog exceeds the budget" (Some true)
    o.Runner.over_budget;
  let shed_on =
    Runner.run_one ~config:Runner.default_config ~mode:Oracle.Svs ~scenario ~seed:1 ()
  in
  Alcotest.(check bool) "shedding keeps the peak strictly lower" true
    (shed_on.Runner.peak_backlog < o.Runner.peak_backlog)

(* --- The self-test table: one verdict rule for every inverted check --- *)

(* The sweep rows, each with its default scenarios and modes. They run
   at the default scale, as svs_chaos does: the overload budget is
   calibrated against it. *)
let sweep_rows =
  List.filter_map
    (fun (t : Self_test.t) ->
      match t.defence with
      | Self_test.Config { scenarios; modes; _ } | Self_test.Mutation { scenarios; modes; _ }
        ->
          Some (t, scenarios, modes)
      | Self_test.Invert _ -> None)
    Self_test.all

let pp_verdict (v : Self_test.verdict) =
  Printf.sprintf "%d eligible, %d missed, %d unclean" v.eligible (List.length v.missed)
    (List.length v.unclean)

let test_sweep_rows_pass () =
  Alcotest.(check int) "six sweep rows" 6 (List.length sweep_rows);
  List.iter
    (fun ((t : Self_test.t), _, _) ->
      let runs = Self_test.run ~config:Runner.default_config ~seeds:[ 1 ] t in
      let v = Self_test.judge t runs in
      Alcotest.(check bool) (t.name ^ ": passes (" ^ pp_verdict v ^ ")") true
        (Self_test.passed v))
    sweep_rows

let test_defence_on_fails_rule () =
  (* Negative control: judged on runs made with its defence left on,
     every row must be reported failed — the rule itself catches a
     missed defence. *)
  let on =
    Runner.sweep ~config:Runner.default_config ~modes:[ Oracle.Vs; Oracle.Svs ]
      ~scenarios:Scenario.faulty ~seeds:[ 1 ] ()
  in
  List.iter
    (fun ((t : Self_test.t), scenarios, modes) ->
      let runs =
        List.filter_map
          (fun (o : Runner.outcome) ->
            let r = o.report in
            if
              List.mem r.Oracle.mode modes
              && List.exists (fun sc -> sc.Scenario.name = r.Oracle.scenario) scenarios
            then Some (Self_test.Sweep o)
            else None)
          on
      in
      let v = Self_test.judge t runs in
      Alcotest.(check bool) (t.name ^ ": fails (" ^ pp_verdict v ^ ")") false
        (Self_test.passed v))
    sweep_rows

let test_rows_judged_apart () =
  (* Selected together over both rows' scenarios, no-merge and
     no-recovery each turn off only their own defence: the amnesiac
     restarts no-recovery catches never count against the merge rule,
     nor merge-less heals against the recovery rule. *)
  let scenarios = [ Scenario.split_heal_merge; Scenario.crash_restart ] in
  List.iter
    (fun name ->
      let t = List.find (fun (t : Self_test.t) -> t.name = name) Self_test.all in
      let runs = Self_test.run ~scenarios ~config:Runner.default_config ~seeds:[ 1 ] t in
      let v = Self_test.judge t runs in
      Alcotest.(check bool) (name ^ ": passes (" ^ pp_verdict v ^ ")") true
        (Self_test.passed v);
      Alcotest.(check int) (name ^ ": one run judged eligible") 1 v.eligible)
    [ "no-merge"; "no-recovery" ]

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A caught self-test run's replay line reruns it under the same
   self-test, at the same non-default horizon, in the report and in
   the printed failure alike. *)
let test_replay_names_self_test () =
  let t = List.find (fun (t : Self_test.t) -> t.name = "drop-cover") Self_test.all in
  let config = { Runner.default_config with horizon = 8.0 } in
  match
    Self_test.run ~scenarios:[ Scenario.crash ] ~modes:[ Oracle.Svs ] ~config ~seeds:[ 1 ] t
  with
  | [ Self_test.Sweep o ] ->
      let r = o.Runner.report in
      Alcotest.(check bool) "caught" false (Oracle.ok r);
      Alcotest.(check string) "replay line"
        "svs_chaos --scenarios crash --modes svs --seeds 1 --seed-base 1 --self-test \
         drop-cover --horizon 8"
        (Oracle.replay r);
      Alcotest.(check bool) "printed with the failure" true
        (contains (Format.asprintf "%a" Oracle.pp_report r) ("replay: " ^ Oracle.replay r))
  | runs -> Alcotest.failf "%d runs, expected one sweep run" (List.length runs)

let () =
  Alcotest.run "svs_chaos"
    [
      ( "scenario",
        [
          Alcotest.test_case "plans deterministic" `Quick test_plans_deterministic;
          Alcotest.test_case "plan invariants" `Quick test_plan_invariants;
          Alcotest.test_case "plans time-ordered" `Quick test_plans_sorted;
        ] );
      ( "runner",
        [
          Alcotest.test_case "sweep passes, both modes" `Slow test_sweep_passes_both_modes;
          Alcotest.test_case "calm baseline" `Quick test_calm_run_has_no_faults;
          Alcotest.test_case "replayable from seed" `Slow test_replayable;
          Alcotest.test_case "fault events traced" `Quick test_fault_events_traced;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "mutation caught" `Slow test_mutation_caught;
          Alcotest.test_case "unmutated control" `Quick test_unmutated_is_clean;
          Alcotest.test_case "flight recorder on failure" `Slow test_flight_recorder_on_failure;
          Alcotest.test_case "mode labels" `Quick test_mode_labels;
        ] );
      ( "overload",
        [
          Alcotest.test_case "sheds within budget" `Slow test_overload_sheds_within_budget;
          Alcotest.test_case "no-shed blows budget" `Slow test_overload_no_shed_blows_budget;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "recovered rejoin safe" `Slow test_recovered_rejoin_is_safe;
          Alcotest.test_case "amnesiac rejoin caught" `Slow test_amnesiac_rejoin_is_caught;
          Alcotest.test_case "restart-dup mutation caught" `Slow
            test_restart_duplicate_mutation_caught;
        ] );
      ( "partition",
        [
          Alcotest.test_case "split sweep passes" `Slow test_split_sweep_passes;
          Alcotest.test_case "split heals and merges" `Slow test_split_heal_merges_back;
          Alcotest.test_case "no-merge caught" `Slow test_no_merge_caught;
          Alcotest.test_case "split-brain mutation caught" `Slow
            test_split_brain_mutation_caught;
        ] );
      ( "self-test",
        [
          Alcotest.test_case "every sweep row passes" `Slow test_sweep_rows_pass;
          Alcotest.test_case "defence on fails the rule" `Slow test_defence_on_fails_rule;
          Alcotest.test_case "rows judged apart" `Slow test_rows_judged_apart;
          Alcotest.test_case "replay names the self-test" `Quick test_replay_names_self_test;
        ] );
    ]
