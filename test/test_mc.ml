(* Tests for svs_mc: the bounded model of the SVS stack, the DFS/DPOR
   explorer, counterexample minimization/replay, and the inverted
   mutation self-tests (the explorer must CATCH every seeded log
   corruption — an exhaustive pass over a broken log is a failure). *)

module Model = Svs_mc.Model
module Explorer = Svs_mc.Explorer
module Oracle = Svs_chaos.Oracle

let stats_tuple (s : Explorer.stats) =
  ( s.Explorer.states,
    s.Explorer.transitions,
    s.Explorer.interleavings,
    s.Explorer.visited_hits,
    s.Explorer.sleep_skips )

let explore_exhausted ?reduce ?dedup cfg =
  let { Explorer.outcome; stats } = Explorer.explore ?reduce ?dedup cfg in
  (match outcome with
  | Explorer.Exhausted -> ()
  | Explorer.State_limit -> Alcotest.fail "hit the state limit"
  | Explorer.Counterexample { trace; violations } ->
      Alcotest.failf "unexpected violation after %d transitions: %a"
        (List.length trace)
        (Fmt.list ~sep:Fmt.comma Svs_core.Checker.pp_violation)
        violations);
  stats

(* ------------------------------------------------------------------ *)
(* Transition descriptors                                              *)
(* ------------------------------------------------------------------ *)

let test_transition_roundtrip () =
  let all =
    [
      Model.Deliver { src = 0; dst = 2 };
      Model.Tick 1;
      Model.Multicast 0;
      Model.Crash 2;
      Model.Restart 1;
      Model.Probe { node = 1; contact = 0 };
      Model.Cut (0, 1);
      Model.Heal (0, 1);
    ]
  in
  List.iter
    (fun t ->
      let s = Model.transition_to_string t in
      match Model.transition_of_string s with
      | Some t' when t' = t -> ()
      | Some _ -> Alcotest.failf "%S parsed to a different transition" s
      | None -> Alcotest.failf "%S did not parse" s)
    all;
  Alcotest.(check (option reject)) "garbage rejected" None
    (Model.transition_of_string "fnord 1 2")

(* ------------------------------------------------------------------ *)
(* Exhaustive exploration of clean configurations                      *)
(* ------------------------------------------------------------------ *)

(* The acceptance configuration: 3 nodes, 2 multicasts, 1 crash. *)
let test_exhaustive_default () =
  let stats = explore_exhausted Model.default in
  Alcotest.(check bool) "states explored" true (stats.Explorer.states > 100);
  Alcotest.(check bool)
    "interleavings counted" true
    (stats.Explorer.interleavings > 10);
  Alcotest.(check bool) "no depth cutoff" true (stats.Explorer.depth_cutoffs = 0)

let test_exhaustive_vs_mode () =
  let stats =
    explore_exhausted
      { Model.default with mode = Oracle.Vs; chain = false }
  in
  Alcotest.(check bool) "states explored" true (stats.Explorer.states > 100)

let test_exhaustive_partition_heal () =
  let stats =
    explore_exhausted
      {
        Model.default with
        multicasts = 1;
        crashes = 0;
        partitions = [ (0, 1) ];
        heals = true;
      }
  in
  Alcotest.(check bool) "states explored" true (stats.Explorer.states > 5)

let test_exhaustive_restart () =
  let stats =
    explore_exhausted
      {
        Model.default with
        multicasts = 1;
        crashes = 1;
        restarts = 1;
        probes = 1;
        max_depth = 60;
      }
  in
  (* A full crash-rejoin cycle needs view changes both ways. *)
  Alcotest.(check bool) "deep traces" true (stats.Explorer.max_depth_seen > 12)

(* ------------------------------------------------------------------ *)
(* Determinism: exploration is a pure function of the configuration    *)
(* ------------------------------------------------------------------ *)

let test_exploration_deterministic () =
  let a = explore_exhausted Model.default in
  let b = explore_exhausted Model.default in
  Alcotest.(check (pair (pair int int) (pair int int)))
    "identical stats"
    ( (a.Explorer.states, a.Explorer.transitions),
      (a.Explorer.interleavings, a.Explorer.visited_hits) )
    ( (b.Explorer.states, b.Explorer.transitions),
      (b.Explorer.interleavings, b.Explorer.visited_hits) )

(* ------------------------------------------------------------------ *)
(* The sleep-set reduction: same verdict, fewer interleavings          *)
(* ------------------------------------------------------------------ *)

let test_reduction_sound_and_effective () =
  let naive = explore_exhausted ~reduce:false ~dedup:false Model.default in
  let dpor = explore_exhausted ~reduce:true ~dedup:false Model.default in
  let full = explore_exhausted Model.default in
  let _, _, naive_il, _, _ = stats_tuple naive in
  let _, _, dpor_il, _, dpor_skips = stats_tuple dpor in
  Alcotest.(check bool)
    "sleep sets cut interleavings" true (dpor_il < naive_il);
  Alcotest.(check bool) "sleep sets actually fired" true (dpor_skips > 0);
  Alcotest.(check bool)
    "dedup cuts further" true
    (full.Explorer.transitions < dpor.Explorer.transitions)

(* ------------------------------------------------------------------ *)
(* Mutation self-tests: the explorer must catch seeded corruption      *)
(* ------------------------------------------------------------------ *)

let restart_cfg =
  {
    Model.default with
    multicasts = 1;
    crashes = 1;
    restarts = 1;
    probes = 1;
    max_depth = 60;
  }

let find_and_replay name mutation cfg =
  match Explorer.explore ~mutation cfg with
  | { Explorer.outcome = Explorer.Counterexample { trace; _ }; _ } -> (
      let minimized, violations = Explorer.minimize ~mutation cfg trace in
      Alcotest.(check bool)
        (name ^ ": minimization keeps the violation")
        true (violations <> None);
      Alcotest.(check bool)
        (name ^ ": minimized no longer than original")
        true
        (List.length minimized <= List.length trace);
      (* The counterexample replays deterministically. *)
      match Explorer.replay ~mutation cfg minimized with
      | Explorer.Reproduced _ -> ()
      | Explorer.Clean -> Alcotest.failf "%s: replay lost the violation" name
      | Explorer.Infeasible { index; _ } ->
          Alcotest.failf "%s: replay infeasible at %d" name index)
  | { Explorer.outcome = Explorer.Exhausted; _ } ->
      Alcotest.failf "%s: mutation survived exhaustive exploration" name
  | { Explorer.outcome = Explorer.State_limit; _ } ->
      Alcotest.failf "%s: state limit before a verdict" name

let test_mutation_drop_cover () =
  find_and_replay "drop-cover" Oracle.Drop_cover Model.default

let test_mutation_split_brain () =
  find_and_replay "split-brain" Oracle.Split_brain Model.default

let test_mutation_dup_restart () =
  find_and_replay "dup-restart" Oracle.Duplicate_after_restart restart_cfg

(* The broken eviction runs in the protocol, not on the log. Under
   plain VS nothing covers anything, so any eviction is uncovered and
   some interleaving leaves a survivor without a delivered message.
   With the chain the smoke preset multicasts, the newest message
   covers everything before it, so the broken eviction is
   indistinguishable there. *)
let test_mutation_evict_uncovered () =
  find_and_replay "evict-uncovered" Oracle.Evict_uncovered
    { Model.default with mode = Oracle.Vs; chain = false }

(* ------------------------------------------------------------------ *)
(* Trace files                                                         *)
(* ------------------------------------------------------------------ *)

let test_trace_file_roundtrip () =
  let cfg = restart_cfg in
  let trace =
    [
      Model.Multicast 0;
      Model.Deliver { src = 0; dst = 1 };
      Model.Crash 1;
      Model.Restart 1;
      Model.Probe { node = 1; contact = 0 };
      Model.Tick 0;
    ]
  in
  let file = Filename.temp_file "svs_mc_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      Explorer.write_trace oc cfg ~mutation:Oracle.Duplicate_after_restart trace;
      close_out oc;
      let ic = open_in file in
      let parsed = Explorer.read_trace ic in
      close_in ic;
      match parsed with
      | Error msg -> Alcotest.failf "trace did not parse: %s" msg
      | Ok (cfg', mutation, trace') ->
          Alcotest.(check bool) "config round-trips" true (cfg' = cfg);
          Alcotest.(check bool)
            "mutation round-trips" true
            (mutation = Some Oracle.Duplicate_after_restart);
          Alcotest.(check bool) "transitions round-trip" true (trace' = trace))

let test_replay_rejects_infeasible () =
  match
    Explorer.replay Model.default
      [ Model.Deliver { src = 0; dst = 1 } (* nothing in flight yet *) ]
  with
  | Explorer.Infeasible { index = 0; _ } -> ()
  | Explorer.Infeasible { index; _ } ->
      Alcotest.failf "wrong index %d" index
  | Explorer.Reproduced _ | Explorer.Clean ->
      Alcotest.fail "empty-network delivery accepted"

let test_replay_clean_prefix () =
  (* A feasible but violation-free trace replays Clean. *)
  match Explorer.replay Model.default [ Model.Multicast 0 ] with
  | Explorer.Clean -> ()
  | Explorer.Reproduced _ -> Alcotest.fail "clean prefix flagged"
  | Explorer.Infeasible _ -> Alcotest.fail "multicast should be enabled"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "svs_mc"
    [
      ( "model",
        [
          Alcotest.test_case "transition round-trip" `Quick
            test_transition_roundtrip;
        ] );
      ( "explore",
        [
          Alcotest.test_case "default config exhausts clean" `Quick
            test_exhaustive_default;
          Alcotest.test_case "vs mode exhausts clean" `Quick
            test_exhaustive_vs_mode;
          Alcotest.test_case "partition+heal exhausts clean" `Quick
            test_exhaustive_partition_heal;
          Alcotest.test_case "crash-restart exhausts clean" `Quick
            test_exhaustive_restart;
          Alcotest.test_case "deterministic" `Quick
            test_exploration_deterministic;
          Alcotest.test_case "reduction sound and effective" `Quick
            test_reduction_sound_and_effective;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "drop-cover caught" `Quick
            test_mutation_drop_cover;
          Alcotest.test_case "split-brain caught" `Quick
            test_mutation_split_brain;
          Alcotest.test_case "dup-restart caught" `Quick
            test_mutation_dup_restart;
          Alcotest.test_case "evict-uncovered caught" `Quick
            test_mutation_evict_uncovered;
        ] );
      ( "traces",
        [
          Alcotest.test_case "file round-trip" `Quick
            test_trace_file_roundtrip;
          Alcotest.test_case "replay rejects infeasible" `Quick
            test_replay_rejects_infeasible;
          Alcotest.test_case "clean prefix replays clean" `Quick
            test_replay_clean_prefix;
        ] );
    ]
