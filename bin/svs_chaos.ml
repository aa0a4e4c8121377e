(* Chaos sweep driver: N seeds x M fault scenarios through the full
   simulated stack, every run machine-checked by the SVS safety oracle.
   Exits non-zero if any run violates the paper's §4 contracts, or, for
   an inverted self-test, if the oracle misses a disabled defence. *)

open Cmdliner
module C = Svs_chaos
module Trace = Svs_telemetry.Trace

let ppf = Format.std_formatter

let scenario_conv =
  let parse s =
    match C.Scenario.find s with
    | Some sc -> Ok sc
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown scenario %S (%s)" s
               (String.concat "|" (List.map (fun sc -> sc.C.Scenario.name) C.Scenario.all))))
  in
  Arg.conv (parse, fun ppf sc -> Format.pp_print_string ppf sc.C.Scenario.name)

let mode_conv =
  let parse s =
    match C.Oracle.mode_of_label s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown mode %S (vs|svs)" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (C.Oracle.mode_label m))

let scenarios_term =
  Arg.(
    value
    & opt (some (list scenario_conv)) None
    & info [ "scenarios" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated scenarios to sweep (default: every built-in except \
           $(b,calm), or a self-test's own scenarios).")

let modes_term =
  Arg.(
    value
    & opt (some (list mode_conv)) None
    & info [ "modes" ] ~docv:"MODES"
        ~doc:
          "Comma-separated oracle modes: $(b,vs) (empty relation, strict view synchrony) \
           and/or $(b,svs) (k-enumeration annotations). Default: both, or a self-test's \
           own modes.")

let seeds_term =
  Arg.(
    value & opt int 20
    & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per scenario and mode.")

let seed_base_term =
  Arg.(
    value & opt int 1
    & info [ "seed-base" ] ~docv:"SEED" ~doc:"First seed of the sweep.")

let nodes_term =
  Arg.(value & opt int C.Runner.default_config.nodes & info [ "nodes" ] ~docv:"N" ~doc:"Group size.")

let horizon_term =
  Arg.(
    value
    & opt float C.Runner.default_config.horizon
    & info [ "horizon" ] ~docv:"SECONDS" ~doc:"Fault and workload window (virtual time).")

let settle_term =
  Arg.(
    value
    & opt float C.Runner.default_config.settle
    & info [ "settle" ] ~docv:"SECONDS" ~doc:"Drain period after the horizon.")

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a JSONL telemetry trace of every run (faults interleaved) to $(docv).")

let flight_term =
  Arg.(
    value
    & opt string "chaos-flight"
    & info [ "flight" ] ~docv:"DIR"
        ~doc:
          "Directory for flight-recorder dumps. Each failing run writes its last \
           protocol events (virtual-time JSONL) to \
           $(docv)/flight-<scenario>-<mode>-<seed>.jsonl next to the replay line, so a \
           red sweep ships a postmortem, not just a seed. A self-test writes into its \
           own subdirectory, $(docv)/<name>/.")

let self_test_term =
  let rows =
    ("all", C.Self_test.all) :: List.map (fun t -> (t.C.Self_test.name, [ t ])) C.Self_test.all
  in
  Arg.(
    value
    & opt (list (enum rows)) []
    & info [ "self-test" ] ~docv:"NAME[,NAME...]"
        ~doc:
          ("Run inverted self-checks instead of the sweep. Each named check turns off \
            one defence, and only that one, over its own scenarios and modes \
            ($(b,--scenarios), $(b,--modes) and $(b,--seeds) override them; the three \
            hostile checks run the hostile suite once and take none of the three). It \
            passes only if the oracle flags every run the missing defence should break \
            while every other run stays clean. $(b,all) selects every check: "
          ^ String.concat " "
              (List.map
                 (fun t -> Printf.sprintf "$(b,%s): %s" t.C.Self_test.name t.C.Self_test.doc)
                 C.Self_test.all)))

let hostile_term =
  Arg.(
    value & flag
    & info [ "hostile" ]
        ~doc:
          "Run the hostile-input suite instead of the sweep: a garbage-spewing peer over \
           real TCP ($(b,frame-corruption)), a bit-flipped write-ahead log \
           ($(b,wal-corruption)) and a scribbled-over replica in the simulator \
           ($(b,state-divergence)). Exits zero only if every defense (quarantine, \
           salvage, divergence self-healing) contained the damage: the control for the \
           $(b,no-quarantine), $(b,no-salvage) and $(b,no-heal) self-tests.")

let json_term =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit a machine-readable JSON summary instead of the human output: one \
           object for the sweep, the hostile suite or a single self-test, with totals, \
           the self-test's name (or null) and one entry per run.")

let verbose_term =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every run, not just the table.")

let plan_term =
  Arg.(
    value
    & opt (some scenario_conv) None
    & info [ "plan" ] ~docv:"NAME"
        ~doc:"Just print the concrete fault plan a scenario draws for $(b,--seed-base).")

let print_plan scenario ~seed ~nodes ~horizon =
  let rng = Svs_sim.Rng.split (Svs_sim.Rng.create ~seed) in
  let plan = scenario.C.Scenario.plan ~rng ~n:nodes ~horizon in
  Format.fprintf ppf "@[<v>%s (seed %d, %d nodes, horizon %gs):@," scenario.C.Scenario.name
    seed nodes horizon;
  if plan = [] then Format.fprintf ppf "  (no faults)@,"
  else List.iter (fun t -> Format.fprintf ppf "  %a@," C.Scenario.pp_timed t) plan;
  Format.fprintf ppf "@]"

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* A run that is not clean also carries the line that replays it. *)
let run_json = function
  | C.Self_test.Sweep o as run ->
      let r = o.C.Runner.report in
      Printf.sprintf
        "{\"scenario\":\"%s\",\"mode\":\"%s\",\"seed\":%d,\"ok\":%b,\"violations\":%d,\
         \"deliveries\":%d,\"installs\":%d,\"faults\":%d,\"restarts\":%d,\"parked\":%d,\
         \"sent\":%d,\"purged\":%d,\"shed\":%d,\"peak_backlog\":%d,\"over_budget\":%s%s}"
        (json_escape r.C.Oracle.scenario)
        (C.Oracle.mode_label r.C.Oracle.mode)
        r.C.Oracle.seed (C.Oracle.ok r)
        (List.length r.C.Oracle.violations)
        r.C.Oracle.deliveries r.C.Oracle.installs o.C.Runner.faults o.C.Runner.restarts
        o.C.Runner.parked o.C.Runner.sent o.C.Runner.purged o.C.Runner.shed
        o.C.Runner.peak_backlog
        (match o.C.Runner.over_budget with
        | None -> "null"
        | Some b -> string_of_bool b)
        (if C.Self_test.clean run then ""
         else Printf.sprintf ",\"replay\":\"%s\"" (json_escape (C.Oracle.replay r)))
  | C.Self_test.Hostile r ->
      Printf.sprintf "{\"scenario\":\"%s\",\"ok\":%b,\"failed_checks\":[%s]}"
        (json_escape r.C.Hostile.scenario) (C.Hostile.ok r)
        (String.concat ","
           (List.filter_map
              (fun (c : C.Hostile.check) ->
                if c.ok then None else Some ("\"" ^ json_escape c.name ^ "\""))
              r.C.Hostile.checks))

let print_json ~self_test ~ok runs =
  let failed = List.length (List.filter C.Self_test.flagged runs) in
  Printf.printf "{\"runs\":%d,\"failed\":%d,\"self_test\":%s,\"ok\":%b,\"results\":[%s]}\n"
    (List.length runs) failed
    (match self_test with None -> "null" | Some name -> "\"" ^ name ^ "\"")
    ok
    (String.concat "," (List.map run_json runs))

(* Write each failing run's flight-recorder ring as one JSONL file under
   [dir]; the name replays the run: scenario, mode, seed. Each file is
   announced on [log]. *)
let dump_flights ~log ~dir outcomes =
  let failing =
    List.filter (fun (o : C.Runner.outcome) -> o.C.Runner.flight <> []) outcomes
  in
  if failing <> [] then begin
    let rec mkdir_p d =
      if not (Sys.file_exists d) then begin
        mkdir_p (Filename.dirname d);
        Sys.mkdir d 0o755
      end
    in
    mkdir_p dir;
    List.iter
      (fun (o : C.Runner.outcome) ->
        let r = o.C.Runner.report in
        let file =
          Filename.concat dir
            (Printf.sprintf "flight-%s-%s-%d.jsonl" r.C.Oracle.scenario
               (C.Oracle.mode_label r.C.Oracle.mode)
               r.C.Oracle.seed)
        in
        let oc = open_out file in
        List.iter
          (fun rec_ ->
            output_string oc (Trace.record_to_json rec_);
            output_char oc '\n')
          o.C.Runner.flight;
        close_out oc;
        Format.fprintf log "flight recorder: %d event(s) -> %s@."
          (List.length o.C.Runner.flight) file)
      failing
  end

let sweep_outcomes =
  List.filter_map (function C.Self_test.Sweep o -> Some o | C.Self_test.Hostile _ -> None)

let pp_run ppf = function
  | C.Self_test.Sweep o ->
      let r = o.C.Runner.report in
      Format.fprintf ppf "scenario=%s mode=%s seed=%d" r.C.Oracle.scenario
        (C.Oracle.mode_label r.C.Oracle.mode)
        r.C.Oracle.seed
  | C.Self_test.Hostile r -> Format.fprintf ppf "hostile scenario %s" r.C.Hostile.scenario

(* Why a run that had to stay clean did not. *)
let pp_unclean ppf = function
  | C.Self_test.Sweep o when not (C.Oracle.ok o.C.Runner.report) ->
      C.Oracle.pp_report ppf o.C.Runner.report
  | C.Self_test.Sweep o as run ->
      Format.fprintf ppf "OVER BUDGET: %a peak_backlog=%d shed=%d@\nreplay: %s" pp_run run
        o.C.Runner.peak_backlog o.C.Runner.shed
        (C.Oracle.replay o.C.Runner.report)
  | C.Self_test.Hostile _ as run -> Format.fprintf ppf "%a was NOT contained" pp_run run

let run scenarios modes seeds seed_base nodes horizon settle trace flight_dir self_tests
    hostile json verbose plan =
  let self_tests =
    List.filter (fun t -> List.exists (List.memq t) self_tests) C.Self_test.all
  in
  match plan with
  | Some scenario ->
      print_plan scenario ~seed:seed_base ~nodes ~horizon;
      `Ok 0
  | None when json && List.length self_tests + Bool.to_int hostile > 1 ->
      `Error (true, "--json reports one self-test, or --hostile, per invocation")
  | None ->
      let config = { C.Runner.default_config with nodes; horizon; settle } in
      let seeds = List.init seeds (fun i -> seed_base + i) in
      let oc = Option.map open_out trace in
      let tracer =
        match oc with
        | None -> Trace.nop
        | Some oc -> Trace.jsonl oc
      in
      let say fmt = Format.(if json then ifprintf ppf fmt else fprintf ppf fmt) in
      let on_run = function
        | C.Self_test.Sweep o ->
            if verbose then
              say "%a  (faults=%d restarts=%d sent=%d purged=%d shed=%d peak_backlog=%d)@."
                C.Oracle.pp_report o.C.Runner.report o.C.Runner.faults o.C.Runner.restarts
                o.C.Runner.sent o.C.Runner.purged o.C.Runner.shed o.C.Runner.peak_backlog
        | C.Self_test.Hostile r -> say "%a@." C.Hostile.pp_report r
      in
      (* Report one batch of runs under its verdict; returns its exit code. *)
      let finish ~self_test ~ok ~summary runs =
        dump_flights
          ~log:(if json then Format.err_formatter else ppf)
          ~dir:(Option.fold ~none:flight_dir ~some:(Filename.concat flight_dir) self_test)
          (sweep_outcomes runs);
        (match sweep_outcomes runs with
        | [] -> ()
        | outcomes -> say "%a@." (fun ppf () -> C.Runner.pp_table ppf outcomes) ());
        summary ();
        if json then print_json ~self_test ~ok runs;
        if ok then 0 else 1
      in
      (* Defences on: every run must be clean. *)
      let control ~what runs =
        let unclean = List.filter (fun r -> not (C.Self_test.clean r)) runs in
        finish ~self_test:None ~ok:(unclean = []) runs ~summary:(fun () ->
            if unclean = [] then say "all %d %s@." (List.length runs) what
            else List.iter (say "%a@." pp_unclean) unclean)
      in
      let self_test (t : C.Self_test.t) =
        let runs = C.Self_test.run ~tracer ~on_run ?scenarios ?modes ~config ~seeds t in
        let v = C.Self_test.judge t runs in
        let ok = C.Self_test.passed v in
        finish ~self_test:(Some t.name) ~ok runs ~summary:(fun () ->
            if ok then
              say "self-test %s passed: all %d eligible run(s) caught, %d other run(s) clean@."
                t.name v.eligible
                (List.length runs - v.eligible)
            else begin
              say "SELF-TEST %s FAILED: %d eligible run(s), %d missed, %d other run(s) not \
                   clean@."
                t.name v.eligible (List.length v.missed) (List.length v.unclean);
              List.iter (say "missed: %a@." pp_run) v.missed;
              List.iter (say "%a@." pp_unclean) v.unclean
            end)
      in
      let code =
        try
          if self_tests = [] && not hostile then
            control ~what:"runs satisfied the SVS safety contracts"
              (List.map
                 (fun o -> C.Self_test.Sweep o)
                 (C.Runner.sweep ~tracer ~config
                    ~on_run:(fun o -> on_run (C.Self_test.Sweep o))
                    ~modes:(Option.value modes ~default:[ C.Oracle.Vs; C.Oracle.Svs ])
                    ~scenarios:(Option.value scenarios ~default:C.Scenario.faulty)
                    ~seeds ()))
          else begin
            let codes = List.map self_test self_tests in
            if hostile then
              control ~what:"hostile scenarios contained"
                (C.Self_test.hostile_suite ~on_run ())
              :: codes
            else codes
          end
          |> List.fold_left max 0
        with Failure msg ->
          Format.fprintf ppf "%s@." msg;
          2
      in
      Option.iter close_out oc;
      `Ok code

let main =
  let doc = "Deterministic chaos sweeps checked by the SVS safety oracle" in
  let info = Cmd.info "svs_chaos" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ scenarios_term $ modes_term $ seeds_term $ seed_base_term
       $ nodes_term $ horizon_term $ settle_term $ trace_term $ flight_term
       $ self_test_term $ hostile_term $ json_term $ verbose_term $ plan_term))

let () = exit (Cmd.eval' main)
