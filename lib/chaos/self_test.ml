type run = Sweep of Runner.outcome | Hostile of Hostile.report

let flagged = function
  | Sweep o -> not (Oracle.ok o.Runner.report)
  | Hostile r -> not (Hostile.ok r)

let clean = function
  | Sweep o -> Oracle.ok o.Runner.report && o.Runner.over_budget <> Some true
  | Hostile r -> Hostile.ok r

type defence =
  | Config of {
      off : Runner.config -> Runner.config;
      scenarios : Scenario.t list;
      modes : Oracle.mode list;
    }
  | Mutation of {
      mutation : Oracle.mutation;
      scenarios : Scenario.t list;
      modes : Oracle.mode list;
    }
  | Invert of string

type t = {
  name : string;
  doc : string;
  defence : defence;
  eligible : run -> bool;
  caught : run -> bool;
}

let sweep_only f = function Sweep o -> f o | Hostile _ -> false

let mutation ?(scenarios = Scenario.faulty) m doc =
  {
    name = Oracle.mutation_label m;
    doc;
    defence = Mutation { mutation = m; scenarios; modes = [ Oracle.Vs; Oracle.Svs ] };
    eligible = (fun _ -> true);
    caught = flagged;
  }

let toggle ?(caught = flagged) name doc off scenario eligible =
  {
    name;
    doc;
    defence = Config { off; scenarios = [ scenario ]; modes = [ Oracle.Svs ] };
    eligible = sweep_only eligible;
    caught;
  }

let hostile name target doc =
  {
    name;
    doc;
    defence = Invert target;
    eligible = (function Hostile r -> r.Hostile.scenario = target | Sweep _ -> false);
    caught = flagged;
  }

let all =
  [
    mutation Oracle.Drop_cover
      "drop one safety-relevant delivery from each recorded run; every run must be \
       caught.";
    mutation Oracle.Split_brain
      "forge a divergent minority view onto each recorded run; the primary-chain check \
       must catch every run.";
    (* A hole needs a view change that must carry a message only some
       survivors delivered: the excluded wedged member's scenarios
       make one in every run. *)
    mutation Oracle.Evict_uncovered
      ~scenarios:[ Scenario.overload; Scenario.overload_mayhem ]
      "evict the whole delivered store from the PRED bookkeeping at every delivery, \
       covered or not; every run must be caught.";
    toggle "no-merge"
      "leave parked members parked instead of probing back in; every scenario that \
       expects re-convergence must fail it."
      (fun c -> { c with Runner.merge = false })
      Scenario.split_heal_merge
      (fun o ->
        match Scenario.find o.Runner.report.Oracle.scenario with
        | Some sc -> sc.Scenario.expect_reconverge
        | None -> false);
    toggle "no-recovery"
      "restart crashed members amnesiac, without their durable state; every run that \
       restarted someone must be caught."
      (fun c -> { c with Runner.recover = false })
      Scenario.crash_restart
      (fun o -> o.Runner.restarts > 0);
    toggle "no-shed"
      "disable semantic shedding; every run with a backlog budget must exceed it while \
       still passing the oracle."
      (fun c -> { c with Runner.shed = false })
      Scenario.overload
      (fun o -> o.Runner.over_budget <> None)
      ~caught:
        (sweep_only (fun o -> o.Runner.over_budget = Some true && Oracle.ok o.Runner.report));
    hostile "no-quarantine" "frame-corruption"
      "raise the quarantine threshold out of reach; frame-corruption must fail.";
    hostile "no-salvage" "wal-corruption"
      "recover the WAL by truncating at the first bad frame; wal-corruption must \
       fail.";
    hostile "no-heal" "state-divergence"
      "detect state divergence but never self-demote; state-divergence must fail.";
  ]

let hostile_runs ~on_run ~invert =
  List.map
    (fun name ->
      let r = Hostile (Hostile.run ~name ~invert:(Some name = invert)) in
      on_run r;
      r)
    Hostile.names

let run ?tracer ?(on_run = ignore) ?scenarios ?modes ~config ~seeds t =
  (* A run's replay line reruns it under this self-test. *)
  let sweep_run (o : Runner.outcome) =
    let r = o.Runner.report in
    let replay_args = "--self-test" :: t.name :: r.Oracle.replay_args in
    Sweep { o with Runner.report = { r with Oracle.replay_args } }
  in
  let sweep ?mutation config ~scenarios:default_scenarios ~modes:default_modes =
    List.map sweep_run
      (Runner.sweep ?mutation ?tracer ~config
         ~on_run:(fun o -> on_run (sweep_run o))
         ~modes:(Option.value modes ~default:default_modes)
         ~scenarios:(Option.value scenarios ~default:default_scenarios)
         ~seeds ())
  in
  match t.defence with
  | Config { off; scenarios; modes } -> sweep (off config) ~scenarios ~modes
  | Mutation { mutation; scenarios; modes } -> sweep ~mutation config ~scenarios ~modes
  | Invert target -> hostile_runs ~on_run ~invert:(Some target)

let hostile_suite ?(on_run = ignore) () = hostile_runs ~on_run ~invert:None

type verdict = { eligible : int; missed : run list; unclean : run list }

let judge (t : t) runs =
  let eligible, others = List.partition t.eligible runs in
  {
    eligible = List.length eligible;
    missed = List.filter (fun r -> not (t.caught r)) eligible;
    unclean = List.filter (fun r -> not (clean r)) others;
  }

let passed v = v.eligible > 0 && v.missed = [] && v.unclean = []
