module Engine = Svs_sim.Engine
module Group = Svs_core.Group
module Checker = Svs_core.Checker
module Latency = Svs_net.Latency
module Stream = Svs_workload.Stream
module Series = Svs_stats.Series

type point = {
  freeze : float;
  reliable_excluded : bool;
  semantic_excluded : bool;
  reliable_peak_backlog : int;
  semantic_peak_backlog : int;
}

(* One run: 3 members; member 2 consumes at 100 msg/s but freezes
   completely during [10, 10+freeze); the laggard rule armed. *)
let run_one ~spec ~buffer ~backlog_limit ~freeze ~semantic =
  let messages = Spec.messages ~buffer spec in
  let engine = Engine.create ~seed:spec.Spec.seed () in
  let config =
    {
      Group.default_config with
      semantic;
      buffer_capacity = Some buffer;
      stability_period = Some 0.25;
      laggard = Some { Group.backlog_limit; report_after = 0.2; evict_after = Some 0.2 };
    }
  in
  let cluster =
    Group.create_cluster engine ~members:[ 0; 1; 2 ] ~latency:(Latency.Constant 0.001)
      ~config ()
  in
  let producer = Group.member cluster 0 in
  let fast = Group.member cluster 1 in
  let victim = Group.member cluster 2 in
  let horizon = 14.0 +. freeze in
  let i = ref 0 in
  let limit =
    let n = Array.length messages in
    let rec scan ix =
      if ix >= n || messages.(ix).Stream.time > horizon then ix else scan (ix + 1)
    in
    scan 0
  in
  let rec emit_next () =
    if !i < limit then begin
      let m = messages.(!i) in
      let at = Float.max m.Stream.time (Engine.now engine) in
      ignore (Engine.schedule_at engine ~time:at (fun () -> attempt m) : Engine.handle)
    end
  and attempt m =
    match Group.multicast producer ~ann:m.Stream.ann m.Stream.sn with
    | Ok _ ->
        incr i;
        emit_next ()
    | Error `Blocked ->
        ignore (Engine.schedule engine ~delay:0.01 (fun () -> attempt m) : Engine.handle)
    | Error `Not_member -> ()
  in
  emit_next ();
  ignore
    (Engine.every engine ~period:0.005 (fun () ->
         ignore (Group.deliver_all producer);
         ignore (Group.deliver_all fast);
         Engine.now engine < horizon)
      : Engine.handle);
  let peak_backlog = ref 0 in
  ignore
    (Engine.every engine ~period:(1.0 /. 100.0) (fun () ->
         let t = Engine.now engine in
         peak_backlog := Stdlib.max !peak_backlog (Group.inbox victim + Group.pending victim);
         if (t < 10.0 || t >= 10.0 +. freeze) && Group.is_member victim then
           ignore (Group.deliver victim);
         t < horizon)
      : Engine.handle);
  Engine.run ~until:horizon engine;
  List.iter (fun m -> ignore (Group.deliver_all m)) (Group.members cluster);
  (match Checker.verify (Group.checker cluster) with
  | [] -> ()
  | violations ->
      invalid_arg
        (String.concat "; " (List.map Checker.violation_to_string violations)));
  let excluded = not (Svs_core.View.mem 2 (Group.view producer)) in
  (excluded, !peak_backlog)

let default_freezes = [ 0.25; 0.5; 1.0; 2.0; 4.0; 8.0 ]

let sweep ?(spec = Spec.default) ?(buffer = 60) ?(backlog_limit = 60)
    ?(freezes = default_freezes) () =
  List.map
    (fun freeze ->
      let reliable_excluded, reliable_peak_backlog =
        run_one ~spec ~buffer ~backlog_limit ~freeze ~semantic:false
      in
      let semantic_excluded, semantic_peak_backlog =
        run_one ~spec ~buffer ~backlog_limit ~freeze ~semantic:true
      in
      { freeze; reliable_excluded; semantic_excluded; reliable_peak_backlog;
        semantic_peak_backlog })
    freezes

let print ?(spec = Spec.default) ppf () =
  Format.fprintf ppf
    "A5: reconfiguration as a last resort (delivery queue 60, laggard eviction at backlog 60 for 0.2 s; \
     one freeze of the given length)@.";
  let points = sweep ~spec () in
  Series.render_table ppf
    ~header:
      [ "freeze (s)"; "reliable: expelled"; "semantic: expelled"; "rel peak backlog";
        "sem peak backlog" ]
    ~rows:
      (List.map
         (fun p ->
           [
             Printf.sprintf "%.2f" p.freeze;
             (if p.reliable_excluded then "yes" else "no");
             (if p.semantic_excluded then "yes" else "no");
             string_of_int p.reliable_peak_backlog;
             string_of_int p.semantic_peak_backlog;
           ])
         points)
