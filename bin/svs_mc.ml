(* Exhaustive small-scope model checker for the SVS automaton.

   Explores EVERY interleaving of a bounded configuration (nodes,
   multicast/crash/restart/partition budgets) through the deterministic
   simulator, checking the paper's §4 contracts at every cut.  A
   violation is minimized and written as a replayable trace file;
   --replay re-executes one deterministically.  --mutate arms the
   inverted self-test: the explorer must CATCH the seeded log
   corruption, proving the checker bites.  See MODELCHECK.md. *)

open Cmdliner
module Model = Svs_mc.Model
module Explorer = Svs_mc.Explorer
module Oracle = Svs_chaos.Oracle

let ppf = Format.std_formatter
let say fmt = Format.fprintf ppf fmt

(* Argument converters *)

let mode_conv =
  let parse s =
    match Oracle.mode_of_label s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown mode %S (vs|svs)" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Oracle.mode_label m))

let pair_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b -> Ok (a, b)
        | _ -> Error (`Msg (Printf.sprintf "bad link %S (want A:B)" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad link %S (want A:B)" s))
  in
  Arg.conv (parse, fun ppf (a, b) -> Format.fprintf ppf "%d:%d" a b)

let mutation_conv =
  let parse s =
    match Oracle.mutation_of_label s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown mutation %S (drop-cover|dup-restart|split-brain)" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Oracle.mutation_label m))

(* Presets: named bounded configurations sized for CI. *)

let presets =
  [
    ("smoke", Model.default);
    (* The acceptance configuration: 3 nodes / 2 multicasts / 1 crash. *)
    ( "restart",
      {
        Model.default with
        multicasts = 1;
        crashes = 1;
        restarts = 1;
        probes = 1;
        max_depth = 60;
      } );
    ( "partition",
      {
        Model.default with
        multicasts = 1;
        crashes = 0;
        partitions = [ (0, 1) ];
        heals = true;
        max_depth = 60;
      } );
    ("vs", { Model.default with mode = Oracle.Vs; chain = false });
    ( "shed",
      (* Semantic shedding at its most aggressive (threshold 1): every
         held link purges its covered tail the moment a newer covering
         multicast is appended, across every interleaving of sends,
         deliveries and the crash — the exhaustive version of the chaos
         overload scenario's safety claim. *)
      { Model.default with multicasts = 3; crashes = 1; shed = Some 1; max_depth = 80 } );
  ]

let preset_conv =
  let parse s =
    match List.assoc_opt s presets with
    | Some c -> Ok (Some (s, c))
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown preset %S (%s)" s
               (String.concat "|" (List.map fst presets))))
  in
  Arg.conv
    ( parse,
      fun ppf -> function
        | Some (name, _) -> Format.pp_print_string ppf name
        | None -> Format.pp_print_string ppf "none" )

(* Terms *)

let nodes_t =
  Arg.(value & opt int Model.default.Model.nodes
       & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size (2-4 is tractable).")

let multicasts_t =
  Arg.(value & opt int Model.default.Model.multicasts
       & info [ "multicasts" ] ~docv:"N" ~doc:"Total data multicast budget.")

let crashes_t =
  Arg.(value & opt int Model.default.Model.crashes
       & info [ "crashes" ] ~docv:"N" ~doc:"Crash budget (node 0 is immortal).")

let restarts_t =
  Arg.(value & opt int Model.default.Model.restarts
       & info [ "restarts" ] ~docv:"N" ~doc:"Crash-recovery rejoin budget.")

let probes_t =
  Arg.(value & opt int Model.default.Model.probes
       & info [ "probes" ] ~docv:"N" ~doc:"JOIN-request budget for rejoining nodes.")

let partitions_t =
  Arg.(value & opt_all pair_conv []
       & info [ "partition" ] ~docv:"A:B"
           ~doc:"Link that may be cut (repeatable, each at most once).")

let heal_t =
  Arg.(value & flag & info [ "heal" ] ~doc:"Allow cut links to heal.")

let mode_t =
  Arg.(value & opt mode_conv Model.default.Model.mode
       & info [ "mode" ] ~docv:"MODE"
           ~doc:"$(b,svs) (k-enumeration annotations) or $(b,vs) (empty relation, \
                 strict view synchrony).")

let no_chain_t =
  Arg.(value & flag
       & info [ "no-chain" ]
           ~doc:"Multicasts unrelated even in svs mode (no obsolescence chain).")

let shed_t =
  Arg.(value & opt (some int) None
       & info [ "shed" ] ~docv:"N"
           ~doc:"Semantic shedding threshold for held links (default: off). A link \
                 holding at least N sheddable frames purges its covered tail when a \
                 newer covering multicast is appended.")

let depth_t =
  Arg.(value & opt int Model.default.Model.max_depth
       & info [ "depth" ] ~docv:"N" ~doc:"Maximum trace length before cutoff.")

let max_states_t =
  Arg.(value & opt int 2_000_000
       & info [ "max-states" ] ~docv:"N" ~doc:"Abort after expanding N states.")

let no_reduce_t =
  Arg.(value & flag
       & info [ "no-reduce" ]
           ~doc:"Disable the sleep-set partial-order reduction.")

let no_dedup_t =
  Arg.(value & flag
       & info [ "no-dedup" ]
           ~doc:"Disable the fingerprint visited set (with $(b,--no-reduce): \
                 naive DFS enumerating every interleaving).")

let mutate_t =
  Arg.(value & opt (some mutation_conv) None
       & info [ "mutate" ] ~docv:"KIND"
           ~doc:"Inverted self-test: corrupt every terminal run's log with KIND \
                 ($(b,drop-cover)|$(b,dup-restart)|$(b,split-brain)), or run every \
                 member with an eviction that drops uncovered messages \
                 ($(b,evict-uncovered)); finding the violation is the PASS.")

let preset_t =
  Arg.(value & opt preset_conv None
       & info [ "preset" ] ~docv:"NAME"
           ~doc:"Named configuration (smoke|restart|partition|vs|shed); explicit bound \
                 flags are ignored when set.")

let trace_out_t =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Where to write the minimized counterexample trace (default \
                 svs_mc_counterexample.trace).")

let replay_t =
  Arg.(value & opt (some string) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay a trace file instead of exploring; exits 0 iff the \
                 violation reproduces.")

let json_t = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable summary on stdout.")

let progress_t =
  Arg.(value & flag & info [ "progress" ] ~doc:"Report state counts while exploring.")

(* Output helpers *)

let pp_trace ppf trace =
  List.iteri (fun i t -> Format.fprintf ppf "  %3d  %a@." i Model.pp_transition t) trace

let print_json ~outcome_label ~exit_code ~reduce ~mutation cfg
    (stats : Explorer.stats) trace_file =
  let b = Buffer.create 512 in
  Buffer.add_string b "{";
  Printf.bprintf b "\"outcome\": %S, " outcome_label;
  Printf.bprintf b "\"exit_code\": %d, " exit_code;
  Printf.bprintf b
    "\"config\": {\"nodes\": %d, \"multicasts\": %d, \"crashes\": %d, \
     \"restarts\": %d, \"probes\": %d, \"partitions\": %d, \"heals\": %b, \
     \"mode\": %S, \"chain\": %b, \"shed\": %s, \"depth\": %d}, "
    cfg.Model.nodes cfg.Model.multicasts cfg.Model.crashes cfg.Model.restarts
    cfg.Model.probes
    (List.length cfg.Model.partitions)
    cfg.Model.heals
    (Oracle.mode_label cfg.Model.mode)
    cfg.Model.chain
    (match cfg.Model.shed with Some l -> string_of_int l | None -> "null")
    cfg.Model.max_depth;
  Printf.bprintf b "\"reduce\": %b, " reduce;
  Printf.bprintf b "\"mutation\": %S, "
    (match mutation with Some m -> Oracle.mutation_label m | None -> "none");
  Printf.bprintf b
    "\"states\": %d, \"transitions\": %d, \"interleavings\": %d, \
     \"visited_hits\": %d, \"sleep_skips\": %d, \"depth_cutoffs\": %d, \
     \"max_depth_seen\": %d"
    stats.Explorer.states stats.Explorer.transitions stats.Explorer.interleavings
    stats.Explorer.visited_hits stats.Explorer.sleep_skips
    stats.Explorer.depth_cutoffs stats.Explorer.max_depth_seen;
  (match trace_file with
  | Some f -> Printf.bprintf b ", \"trace\": %S" f
  | None -> ());
  Buffer.add_string b "}";
  print_endline (Buffer.contents b)

(* Replay mode *)

let run_replay file json =
  let ic = open_in file in
  let parsed = Explorer.read_trace ic in
  close_in ic;
  match parsed with
  | Error msg ->
      say "cannot read %s: %s@." file msg;
      2
  | Ok (cfg, mutation, trace) -> (
      say "replaying %d transition(s) from %s (%s)@." (List.length trace) file
        (match mutation with
        | Some m -> "mutation " ^ Oracle.mutation_label m
        | None -> "no mutation");
      match Explorer.replay ?mutation cfg trace with
      | Explorer.Reproduced violations ->
          say "violation reproduced:@.";
          List.iter
            (fun v -> say "  %a@." Svs_core.Checker.pp_violation v)
            violations;
          if json then
            Printf.printf
              "{\"outcome\": \"reproduced\", \"violations\": %d, \"trace_len\": %d}\n"
              (List.length violations) (List.length trace);
          0
      | Explorer.Clean ->
          say "trace replayed cleanly — violation NOT reproduced@.";
          if json then
            Printf.printf "{\"outcome\": \"clean\", \"trace_len\": %d}\n"
              (List.length trace);
          1
      | Explorer.Infeasible { index; transition } ->
          say "trace infeasible at step %d: %a not enabled@." index
            Model.pp_transition transition;
          if json then
            Printf.printf "{\"outcome\": \"infeasible\", \"at\": %d}\n" index;
          2)

(* Explore mode *)

let run nodes multicasts crashes restarts probes partitions heal mode no_chain shed
    depth max_states no_reduce no_dedup mutate preset trace_out replay json
    progress =
  match replay with
  | Some file -> run_replay file json
  | None ->
      let cfg =
        match preset with
        | Some (_, c) -> c
        | None ->
            {
              Model.nodes;
              multicasts;
              crashes;
              restarts;
              probes;
              partitions;
              heals = heal;
              mode;
              chain = not no_chain;
              shed;
              max_depth = depth;
            }
      in
      let reduce = not no_reduce in
      let dedup = not no_dedup in
      let progress_cb =
        if progress then
          Some
            (fun (s : Explorer.stats) ->
              Format.eprintf "  ... %d states, %d interleavings@." s.Explorer.states
                s.Explorer.interleavings)
        else None
      in
      say "exploring: %d nodes, %d multicasts, %d crashes, %d restarts, %d \
           probes, %d cuttable links%s, mode %s%s%s, depth %d%s%s%s@."
        cfg.Model.nodes cfg.Model.multicasts cfg.Model.crashes cfg.Model.restarts
        cfg.Model.probes
        (List.length cfg.Model.partitions)
        (if cfg.Model.heals then " (healable)" else "")
        (Oracle.mode_label cfg.Model.mode)
        (if cfg.Model.chain then "" else " (no chain)")
        (match cfg.Model.shed with
        | Some l -> Printf.sprintf ", shed>=%d" l
        | None -> "")
        cfg.Model.max_depth
        (if reduce then "" else ", reduction OFF")
        (if dedup then "" else ", dedup OFF")
        (match mutate with
        | Some m -> Printf.sprintf ", mutation %s" (Oracle.mutation_label m)
        | None -> "");
      let { Explorer.outcome; stats } =
        Explorer.explore ~reduce ~dedup ~max_states ?mutation:mutate
          ?progress:progress_cb cfg
      in
      let finish ~outcome_label ~exit_code trace_file =
        say "%a@." Explorer.pp_stats stats;
        if json then
          print_json ~outcome_label ~exit_code ~reduce ~mutation:mutate cfg stats
            trace_file;
        exit_code
      in
      match outcome with
      | Explorer.Exhausted ->
          let label, code =
            match mutate with
            | Some m ->
                say
                  "SELF-TEST FAILED: explored everything but never caught \
                   mutation %s@."
                  (Oracle.mutation_label m);
                ("mutation-missed", 1)
            | None ->
                say "exhausted: every interleaving satisfies the contracts@.";
                ("exhausted", 0)
          in
          finish ~outcome_label:label ~exit_code:code None
      | Explorer.State_limit ->
          say "state limit (%d) hit before exhausting the space@." max_states;
          finish ~outcome_label:"state-limit" ~exit_code:2 None
      | Explorer.Counterexample { trace; violations } ->
          let minimized, min_violations =
            Explorer.minimize ?mutation:mutate cfg trace
          in
          let violations =
            match min_violations with Some v -> v | None -> violations
          in
          let file =
            match trace_out with
            | Some f -> f
            | None -> "svs_mc_counterexample.trace"
          in
          let oc = open_out file in
          Explorer.write_trace oc cfg ?mutation:mutate minimized;
          close_out oc;
          let label, code =
            match mutate with
            | Some m ->
                say "self-test passed: mutation %s caught@."
                  (Oracle.mutation_label m);
                ("mutation-caught", 0)
            | None ->
                say "VIOLATION found@.";
                ("violation", 1)
          in
          say "counterexample (%d transitions, minimized from %d):@."
            (List.length minimized) (List.length trace);
          pp_trace ppf minimized;
          List.iter
            (fun v -> say "  violates: %a@." Svs_core.Checker.pp_violation v)
            violations;
          say "written to %s@." file;
          say "replay: dune exec bin/svs_mc.exe -- --replay %s@." file;
          finish ~outcome_label:label ~exit_code:code (Some file)

let main =
  let doc = "Exhaustive small-scope model checking of the SVS automaton" in
  let info = Cmd.info "svs_mc" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const run $ nodes_t $ multicasts_t $ crashes_t $ restarts_t $ probes_t
      $ partitions_t $ heal_t $ mode_t $ no_chain_t $ shed_t $ depth_t $ max_states_t
      $ no_reduce_t $ no_dedup_t $ mutate_t $ preset_t $ trace_out_t $ replay_t $ json_t
      $ progress_t)

let () = exit (Cmd.eval' main)
