module Engine = Svs_sim.Engine
module Rng = Svs_sim.Rng
module Group = Svs_core.Group
module Latency = Svs_net.Latency
module Annotation = Svs_obs.Annotation
module Kenum_stream = Svs_obs.Kenum_stream
module Trace = Svs_telemetry.Trace

type config = {
  nodes : int;
  horizon : float;
  settle : float;
  send_period : float;
  k : int;
  obsolete_bias : float;
  reconfigure : float option;
  recover : bool;
  merge : bool;
  shed : bool;
      (* Honor the scenario's shed_limit (default). false runs the
         same plans with shedding disabled — the inverted no-shed
         self-check, which must blow the overload budget. *)
}

let default_config =
  {
    nodes = 5;
    horizon = 12.0;
    settle = 6.0;
    send_period = 0.05;
    k = 8;
    obsolete_bias = 0.7;
    reconfigure = Some 0.45;
    recover = true;
    merge = true;
    shed = true;
  }

type outcome = {
  report : Oracle.report;
  faults : int;
  restarts : int;
  parked : int;
  sent : int;
  purged : int;
  shed : int;
  peak_backlog : int;
  over_budget : bool option;
      (* Some true: the sampled peak paused backlog exceeded the
         scenario's budget; None when the scenario sets no budget. *)
  events : int;
  flight : Trace.record list;
}

(* Last-N protocol events of the run, kept by a ring teed behind the
   caller's tracer. Only a failing run pays to materialise them. *)
let flight_capacity = 2048

(* The [svs_chaos] flags that set [config] where it differs from the
   default; the rest of the config is only reachable through a
   self-test. *)
let replay_args config =
  let d = default_config in
  List.concat_map
    (fun (flag, differs, value) -> if differs then [ flag; value ] else [])
    [
      ("--nodes", config.nodes <> d.nodes, string_of_int config.nodes);
      ("--horizon", config.horizon <> d.horizon, Printf.sprintf "%.17g" config.horizon);
      ("--settle", config.settle <> d.settle, Printf.sprintf "%.17g" config.settle);
    ]

let run_one ?mutation ?(tracer = Trace.nop) ?(config = default_config) ~mode ~scenario ~seed
    () =
  let engine = Engine.create ~seed () in
  let flight_ring = Trace.ring ~capacity:flight_capacity () in
  let tracer = Trace.tee tracer flight_ring in
  let members = List.init config.nodes Fun.id in
  let gconfig =
    {
      Group.default_config with
      tracer;
      evict_uncovered = mutation = Some Oracle.Evict_uncovered;
      park_timeout = scenario.Scenario.park_timeout;
      merge = config.merge;
      shed = (if config.shed then scenario.Scenario.shed_limit else None);
      (* Park semantics only exist under partition-sensitive consensus:
         the centralised arbiter decides out-of-band, so a split
         minority would learn the majority's decision and exclude
         itself instead of blocking. Scenarios that park therefore run
         the real ◇S consensus over the same (splittable) network. *)
      consensus =
        (if scenario.Scenario.park_timeout <> None then Group.Chandra_toueg
         else Group.default_config.consensus);
    }
  in
  let cluster =
    Group.create_cluster engine ~members ~latency:(Latency.Constant 0.002) ~config:gconfig ()
  in
  (* Workload randomness on its own split stream, so workload and fault
     plan draws cannot perturb each other. *)
  let wrng = Rng.split (Engine.rng engine) in
  let sent = ref 0 in
  let streams : (int, Kenum_stream.t) Hashtbl.t = Hashtbl.create config.nodes in
  let annotation p =
    match (mode : Oracle.mode) with
    | Vs -> Annotation.Unrelated
    | Svs ->
        let st =
          match Hashtbl.find_opt streams p with
          | Some st -> st
          | None ->
              let st = Kenum_stream.create ~k:config.k () in
              Hashtbl.replace streams p st;
              st
        in
        let direct =
          if Kenum_stream.next_sn st > 0 && Rng.chance wrng config.obsolete_bias then [ 1 ]
          else []
        in
        Annotation.Kenum (Kenum_stream.push st ~direct)
  in
  (* Producers: skip a tick while blocked or gone, so the Kenum stream's
     sequence numbers stay aligned with the protocol's (the annotation
     is only built once the multicast is known to go through). *)
  let try_send m =
    if Group.is_member m && not (Group.is_blocked m) then begin
      let p = Group.id m in
      match Group.multicast m ~ann:(annotation p) !sent with
      | Ok _ -> incr sent
      | Error _ -> ()
    end
  in
  let drain_until = config.horizon +. config.settle in
  List.iter
    (fun m ->
      let start = Rng.uniform wrng ~lo:0.0 ~hi:config.send_period in
      ignore
        (Engine.every engine ~start ~period:config.send_period (fun () ->
             try_send m;
             Engine.now engine < config.horizon)
          : Engine.handle);
      ignore
        (Engine.every engine ~start:(start +. 0.001) ~period:(config.send_period /. 2.0)
           (fun () ->
             ignore (Group.deliver_all m);
             Engine.now engine < drain_until)
          : Engine.handle))
    (Group.members cluster);
  (* A benign reconfiguration mid-run, so even fault plans that never
     force a membership change exercise the view-pair contracts (with a
     single everlasting view, SVS and strict VS hold vacuously). *)
  Option.iter
    (fun frac ->
      let rec attempt () =
        let anchor = Group.member cluster 0 in
        if Group.is_member anchor && not (Group.is_blocked anchor) then
          Group.trigger_view_change anchor ~leave:[] ()
        else if Engine.now engine < config.horizon then
          ignore (Engine.schedule engine ~delay:0.05 attempt : Engine.handle)
      in
      ignore
        (Engine.schedule_at engine ~time:(frac *. config.horizon) attempt : Engine.handle))
    config.reconfigure;
  (* Peak paused-inbox data backlog, sampled between sends: the
     quantity the overload budget bounds (and no-shed must blow). *)
  let peak_backlog = ref 0 in
  ignore
    (Engine.every engine ~start:(config.send_period /. 2.0) ~period:(config.send_period /. 2.0)
       (fun () ->
         List.iter
           (fun p ->
             let b = Group.backlog cluster p in
             if b > !peak_backlog then peak_backlog := b)
           members;
         Engine.now engine < drain_until)
      : Engine.handle);
  let injection =
    Injector.inject ~recover:config.recover cluster ~scenario ~horizon:config.horizon
  in
  Engine.run ~until:config.horizon engine;
  Injector.settle injection;
  Engine.run ~until:drain_until engine;
  (* Whatever the periodic drains missed (e.g. a flush completing at the
     very end): pull synchronously before judging. *)
  List.iter (fun m -> ignore (Group.deliver_all m)) (Group.members cluster);
  (* Split scenarios never remove anyone for good, so the convergence
     contract quantifies over the whole group. *)
  let expect_converged = if scenario.Scenario.expect_reconverge then Some members else None in
  let report =
    Oracle.check ?mutation ?expect_converged ~mode ~seed ~scenario:scenario.Scenario.name
      (Group.checker cluster)
  in
  let report = { report with Oracle.replay_args = replay_args config } in
  {
    report;
    faults = Injector.faults_injected injection;
    restarts = Injector.restarts_applied injection;
    parked = Group.parked_events cluster;
    sent = !sent;
    purged = List.fold_left (fun acc m -> acc + Group.purged m) 0 (Group.members cluster);
    shed = Group.shed_total cluster;
    peak_backlog = !peak_backlog;
    over_budget =
      (* The budget bounds what shedding can keep bounded, and shedding
         needs semantic information: VS-mode runs send [Unrelated]
         annotations (nothing is sheddable), so no bound is claimable
         there and the verdict only applies to SVS-mode runs. *)
      (match mode with
      | Oracle.Vs -> None
      | Oracle.Svs ->
          Option.map (fun budget -> !peak_backlog > budget) scenario.Scenario.backlog_budget);
    events = Engine.events_executed engine;
    flight = (if Oracle.ok report then [] else Trace.records flight_ring);
  }

let sweep ?mutation ?tracer ?config ?(on_run = ignore) ~modes ~scenarios ~seeds () =
  List.concat_map
    (fun scenario ->
      List.concat_map
        (fun mode ->
          List.map
            (fun seed ->
              let o =
                try run_one ?mutation ?tracer ?config ~mode ~scenario ~seed ()
                with Failure msg ->
                  failwith
                    (Printf.sprintf "seed=%d scenario=%s mode=%s: %s" seed
                       scenario.Scenario.name (Oracle.mode_label mode) msg)
              in
              on_run o;
              o)
            seeds)
        modes)
    scenarios

let failures outcomes = List.filter (fun o -> not (Oracle.ok o.report)) outcomes

(* --- Reporting --- *)

let pp_table ppf outcomes =
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun o ->
      let key = (o.report.Oracle.scenario, o.report.Oracle.mode) in
      if not (Hashtbl.mem groups key) then begin
        order := key :: !order;
        Hashtbl.replace groups key []
      end;
      Hashtbl.replace groups key (o :: Hashtbl.find groups key))
    outcomes;
  let header =
    [
      "scenario"; "mode"; "seeds"; "pass"; "fail"; "faults"; "parked"; "sent"; "delivered";
      "purged"; "shed";
    ]
  in
  let rows =
    List.rev_map
      (fun ((scenario, mode) as key) ->
        let os = Hashtbl.find groups key in
        let n = List.length os in
        let fails = List.length (failures os) in
        let sum f = List.fold_left (fun acc o -> acc + f o) 0 os in
        [
          scenario;
          Oracle.mode_label mode;
          string_of_int n;
          string_of_int (n - fails);
          string_of_int fails;
          string_of_int (sum (fun o -> o.faults));
          string_of_int (sum (fun o -> o.parked));
          string_of_int (sum (fun o -> o.sent));
          string_of_int (sum (fun o -> o.report.Oracle.deliveries));
          string_of_int (sum (fun o -> o.purged));
          string_of_int (sum (fun o -> o.shed));
        ])
      !order
  in
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w cell -> Stdlib.max w (String.length cell)) ws row)
      (List.map String.length header)
      rows
  in
  let line row =
    Format.fprintf ppf "%s@,"
      (String.concat "  "
         (List.map2 (fun w cell -> cell ^ String.make (w - String.length cell) ' ') widths row))
  in
  Format.fprintf ppf "@[<v>";
  line header;
  line (List.map (fun w -> String.make w '-') widths);
  List.iter line rows;
  Format.fprintf ppf "@]"
