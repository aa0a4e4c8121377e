(* Explicit-state DFS over the choice traces of a bounded Model
   configuration.  Stateless exploration: there is no snapshot/undo —
   the first child of a state reuses the live system, and every later
   sibling re-executes the prefix from a fresh [Model.make].  Sleep-set
   partial-order reduction prunes interleavings that only permute
   independent transitions; a fingerprint-keyed visited set prunes
   states reached twice, with the standard sleep-set soundness
   condition (prune only when a previous visit explored at least as
   much, i.e. some stored sleep set is a subset of the current one). *)

module Checker = Svs_core.Checker
module Oracle = Svs_chaos.Oracle

type stats = {
  mutable states : int;
  mutable transitions : int;
  mutable interleavings : int;
  mutable visited_hits : int;
  mutable sleep_skips : int;
  mutable depth_cutoffs : int;
  mutable max_depth_seen : int;
}

let fresh_stats () =
  {
    states = 0;
    transitions = 0;
    interleavings = 0;
    visited_hits = 0;
    sleep_skips = 0;
    depth_cutoffs = 0;
    max_depth_seen = 0;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "states=%d transitions=%d interleavings=%d visited-hits=%d \
     sleep-skips=%d depth-cutoffs=%d max-depth=%d"
    s.states s.transitions s.interleavings s.visited_hits s.sleep_skips
    s.depth_cutoffs s.max_depth_seen

type outcome =
  | Exhausted
  | State_limit
  | Counterexample of {
      trace : Model.transition list;
      violations : Checker.violation list;
    }

type run = { outcome : outcome; stats : stats }

(* Violation check at a cut.  The base contracts are checked at every
   leaf — the checker log is monotone, so a violation anywhere along a
   path is still visible at its leaf.  Convergence binds only terminal
   states with no active cut; the self-test mutation (which corrupts a
   copy of the recorded log) is likewise only meaningful on a complete
   run, and is skipped when the run contains nothing to corrupt. *)
let check_cut cfg ~mutation ~terminal sys =
  let ck = Model.checker sys in
  let base =
    match cfg.Model.mode with
    | Oracle.Vs -> Checker.verify_strict_vs ck
    | Oracle.Svs -> Checker.verify ck
  in
  let base =
    if terminal && Model.converged_checkable sys then
      base @ Checker.check_converged ck ~survivors:(Model.survivors sys)
    else base
  in
  if base <> [] then Some base
  else
    match mutation with
    | Some mut when terminal -> (
        match
          Oracle.check ~mutation:mut ~mode:cfg.Model.mode ~seed:0
            ~scenario:"mc" ck
        with
        | r -> if Oracle.ok r then None else Some r.Oracle.violations
        | exception Failure _ -> None)
    | _ -> None

exception Found of Model.transition list * Checker.violation list
exception Limit

let replay_prefix ?mutation cfg rev_trace =
  let sys = Model.make ?mutation cfg in
  List.iter (fun t -> Model.apply sys t) (List.rev rev_trace);
  sys

let subset z sleep = List.for_all (fun t -> List.mem t sleep) z

(* Per fingerprint we remember up to [max_sleep_sets] sleep sets under
   which the state was fully explored; a revisit may be pruned iff one
   of them is contained in the current sleep set (it explored a
   superset of what we would). *)
let max_sleep_sets = 8

let explore ?(reduce = true) ?(dedup = true) ?(max_states = 2_000_000)
    ?mutation ?progress cfg =
  let stats = fresh_stats () in
  let visited : (string, Model.transition list list) Hashtbl.t =
    Hashtbl.create 4096
  in
  let leaf sys rev_trace depth ~terminal =
    if depth > stats.max_depth_seen then stats.max_depth_seen <- depth;
    match check_cut cfg ~mutation ~terminal sys with
    | Some v -> raise (Found (List.rev rev_trace, v))
    | None -> ()
  in
  let rec go sys rev_trace depth sleep =
    let enabled = Model.enabled sys in
    if enabled = [] then begin
      stats.interleavings <- stats.interleavings + 1;
      leaf sys rev_trace depth ~terminal:true
    end
    else if depth >= cfg.Model.max_depth then begin
      stats.depth_cutoffs <- stats.depth_cutoffs + 1;
      stats.interleavings <- stats.interleavings + 1;
      leaf sys rev_trace depth ~terminal:false
    end
    else begin
      let covered =
        if not dedup then false
        else begin
          let fp = Model.fingerprint sys in
          let zs =
            match Hashtbl.find_opt visited fp with Some l -> l | None -> []
          in
          if List.exists (fun z -> subset z sleep) zs then true
          else begin
            if List.length zs < max_sleep_sets then
              Hashtbl.replace visited fp (sleep :: zs);
            false
          end
        end
      in
      if covered then begin
        stats.visited_hits <- stats.visited_hits + 1;
        leaf sys rev_trace depth ~terminal:false
      end
      else begin
        stats.states <- stats.states + 1;
        if stats.states > max_states then raise Limit;
        (match progress with
        | Some f when stats.states mod 1024 = 0 -> f stats
        | _ -> ());
        let todo = List.filter (fun t -> not (List.mem t sleep)) enabled in
        stats.sleep_skips <-
          stats.sleep_skips + (List.length enabled - List.length todo);
        if todo = [] then leaf sys rev_trace depth ~terminal:false
        else
          (* First child runs on the live system; later siblings
             re-execute the prefix.  The child's sleep set is computed
             in the state BEFORE applying [t]: transitions already
             explored (or inherited asleep) that commute with [t]
             stay asleep below it. *)
          let rec siblings first done_ = function
            | [] -> ()
            | t :: rest ->
                let sys_t =
                  if first then sys else replay_prefix ?mutation cfg rev_trace
                in
                let child_sleep =
                  if reduce then
                    List.filter
                      (fun u -> Model.independent sys_t u t)
                      (sleep @ done_)
                  else []
                in
                Model.apply sys_t t;
                stats.transitions <- stats.transitions + 1;
                go sys_t (t :: rev_trace) (depth + 1) child_sleep;
                siblings false (t :: done_) rest
          in
          siblings true [] todo
      end
    end
  in
  match go (Model.make ?mutation cfg) [] 0 [] with
  | () -> { outcome = Exhausted; stats }
  | exception Limit -> { outcome = State_limit; stats }
  | exception Found (trace, violations) ->
      { outcome = Counterexample { trace; violations }; stats }

(* Replay: validate every transition against [enabled] before applying
   it, so a stale or hand-edited trace fails loudly instead of
   [Invalid_argument]-ing deep inside the cluster. *)

type replay_result =
  | Reproduced of Checker.violation list
  | Clean
  | Infeasible of { index : int; transition : Model.transition }

let replay ?mutation cfg trace =
  let sys = Model.make ?mutation cfg in
  let rec run i = function
    | [] ->
        let terminal = Model.enabled sys = [] in
        (match check_cut cfg ~mutation ~terminal sys with
        | Some v -> Reproduced v
        | None -> Clean)
    | t :: rest ->
        if List.mem t (Model.enabled sys) then begin
          Model.apply sys t;
          run (i + 1) rest
        end
        else Infeasible { index = i; transition = t }
  in
  run 0 trace

(* Counterexample minimization: greedily drop transitions, scanning
   from the end (later transitions are cheaper to remove — nothing
   depends on them), until a fixpoint.  A removal is kept only if the
   shortened trace still replays feasibly AND still violates. *)

let still_violating ?mutation cfg trace =
  match replay ?mutation cfg trace with
  | Reproduced v -> Some v
  | Clean | Infeasible _ -> None

let minimize ?mutation cfg trace =
  let current = ref trace in
  let violations = ref (still_violating ?mutation cfg trace) in
  let changed = ref true in
  while !changed do
    changed := false;
    let n = List.length !current in
    for i = n - 1 downto 0 do
      let cand = List.filteri (fun j _ -> j <> i) !current in
      match still_violating ?mutation cfg cand with
      | Some v ->
          current := cand;
          violations := Some v;
          changed := true
      | None -> ()
    done
  done;
  (!current, !violations)

(* Trace files.  Line 1 is a magic comment, line 2 the configuration,
   then one transition per line.  The format deliberately matches what
   a human would type: the same strings [Model.transition_to_string]
   prints and [transition_of_string] parses. *)

let magic = "# svs_mc trace v1"

let config_line cfg mutation =
  let partitions =
    match cfg.Model.partitions with
    | [] -> "none"
    | l ->
        String.concat ","
          (List.map (fun (a, b) -> Printf.sprintf "%d:%d" a b) l)
  in
  Printf.sprintf
    "config nodes=%d multicasts=%d crashes=%d restarts=%d probes=%d \
     partitions=%s heals=%b mode=%s chain=%b shed=%s depth=%d mutation=%s"
    cfg.Model.nodes cfg.Model.multicasts cfg.Model.crashes cfg.Model.restarts
    cfg.Model.probes partitions cfg.Model.heals
    (Oracle.mode_label cfg.Model.mode)
    cfg.Model.chain
    (match cfg.Model.shed with Some l -> string_of_int l | None -> "none")
    cfg.Model.max_depth
    (match mutation with Some m -> Oracle.mutation_label m | None -> "none")

let write_trace oc cfg ?mutation trace =
  output_string oc (magic ^ "\n");
  output_string oc (config_line cfg mutation ^ "\n");
  List.iter
    (fun t -> output_string oc (Model.transition_to_string t ^ "\n"))
    trace

let parse_config_line line =
  match String.split_on_char ' ' line with
  | "config" :: fields -> (
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun f ->
          match String.index_opt f '=' with
          | Some i ->
              Hashtbl.replace tbl
                (String.sub f 0 i)
                (String.sub f (i + 1) (String.length f - i - 1))
          | None -> ())
        fields;
      let int k d =
        match Hashtbl.find_opt tbl k with
        | Some v -> int_of_string v
        | None -> d
      in
      let bool k d =
        match Hashtbl.find_opt tbl k with
        | Some v -> bool_of_string v
        | None -> d
      in
      try
        let partitions =
          match Hashtbl.find_opt tbl "partitions" with
          | None | Some "none" | Some "" -> []
          | Some s ->
              List.map
                (fun pair ->
                  match String.split_on_char ':' pair with
                  | [ a; b ] -> (int_of_string a, int_of_string b)
                  | _ -> failwith "partition pair")
                (String.split_on_char ',' s)
        in
        let mode =
          match Hashtbl.find_opt tbl "mode" with
          | Some s -> (
              match Oracle.mode_of_label s with
              | Some m -> m
              | None -> failwith "mode")
          | None -> Oracle.Svs
        in
        let mutation =
          match Hashtbl.find_opt tbl "mutation" with
          | None | Some "none" -> None
          | Some s -> (
              match Oracle.mutation_of_label s with
              | Some m -> Some m
              | None -> failwith "mutation")
        in
        let d = Model.default in
        Ok
          ( {
              Model.nodes = int "nodes" d.Model.nodes;
              multicasts = int "multicasts" d.Model.multicasts;
              crashes = int "crashes" d.Model.crashes;
              restarts = int "restarts" d.Model.restarts;
              probes = int "probes" d.Model.probes;
              partitions;
              heals = bool "heals" d.Model.heals;
              mode;
              chain = bool "chain" d.Model.chain;
              shed =
                (match Hashtbl.find_opt tbl "shed" with
                | None | Some "none" -> d.Model.shed
                | Some v -> Some (int_of_string v));
              max_depth = int "depth" d.Model.max_depth;
            },
            mutation )
      with Failure m -> Error (Printf.sprintf "bad config line (%s)" m))
  | _ -> Error "expected a config line"

let read_trace ic =
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  match List.rev !lines with
  | m :: cfg_line :: rest when String.trim m = magic -> (
      match parse_config_line (String.trim cfg_line) with
      | Error _ as e -> e
      | Ok (cfg, mutation) -> (
          let rest =
            List.filter
              (fun l ->
                let l = String.trim l in
                l <> "" && not (String.length l > 0 && l.[0] = '#'))
              rest
          in
          let parsed = List.map Model.transition_of_string rest in
          match
            List.find_index (fun t -> t = None) parsed
          with
          | Some i ->
              Error
                (Printf.sprintf "unparseable transition on line %d" (i + 3))
          | None ->
              Ok
                ( cfg,
                  mutation,
                  List.filter_map (fun t -> t) parsed )))
  | _ -> Error "not an svs_mc trace (missing magic header)"
