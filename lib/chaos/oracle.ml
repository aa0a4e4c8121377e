module Checker = Svs_core.Checker
module View = Svs_core.View
module Msg_id = Svs_obs.Msg_id

type mode = Vs | Svs

let mode_label = function Vs -> "vs" | Svs -> "svs"

let mode_of_label = function "vs" -> Some Vs | "svs" -> Some Svs | _ -> None

type mutation = Drop_cover | Duplicate_after_restart | Split_brain | Evict_uncovered

let mutation_label = function
  | Drop_cover -> "drop-cover"
  | Duplicate_after_restart -> "dup-restart"
  | Split_brain -> "split-brain"
  | Evict_uncovered -> "evict-uncovered"

let mutation_of_label = function
  | "drop-cover" -> Some Drop_cover
  | "dup-restart" -> Some Duplicate_after_restart
  | "split-brain" -> Some Split_brain
  | "evict-uncovered" -> Some Evict_uncovered
  | _ -> None

type report = {
  mode : mode;
  seed : int;
  scenario : string;
  violations : Checker.violation list;
  deliveries : int;
  installs : int;
  mutated : (int * Msg_id.t) option;
  replay_args : string list;
}

let ok r = r.violations = []

let view_pair = function
  | Checker.Svs_hole { view_id; _ }
  | Checker.Fifo_sr_hole { view_id; _ }
  | Checker.Vs_mismatch { view_id; _ } ->
      Some (view_id, view_id + 1)
  | Checker.View_disagreement { view_id; _ } -> Some (view_id, view_id)
  | Checker.Split_brain { prev_view_id; view_id; _ } -> Some (prev_view_id, view_id)
  | Checker.Created _ | Checker.Duplicated _ | Checker.Fifo_order _
  | Checker.Not_converged _ ->
      None

(* --- Mutation: pick a delivery whose removal must break safety. --- *)

(* A candidate is (q, m): q delivered m in a segment followed by
   another install, some other process p delivered m and installed the
   same view pair, and nothing else q delivered before that next
   install covers m. Removing m from q's log then necessarily opens an
   SVS hole (and, with an empty relation, a strict-VS mismatch). *)
let find_droppable check =
  let successors = Checker.build_successors check in
  let procs = Checker.processes check in
  let segs = List.map (fun p -> (p, Checker.segments check ~p)) procs in
  let in_view id (s : Checker.segment) = s.view.View.id = id in
  let delivered_pair p vi vj (m : Checker.meta) =
    let ss = List.assoc p segs in
    List.exists (in_view vj) ss
    && List.exists
         (fun (s : Checker.segment) ->
           in_view vi s
           && List.exists (fun (d : Checker.meta) -> Msg_id.equal d.id m.id) s.deliveries)
         ss
  in
  List.find_map
    (fun (q, qsegs) ->
      let rec pairs = function
        (* Only genuinely consecutive view ids form a checked pair —
           mirror the checker, which skips the view-id gap a
           crash–rejoin leaves in a process's log. *)
        | (si : Checker.segment) :: ((sj : Checker.segment) :: _ as rest)
          when sj.view.View.id <> si.view.View.id + 1 ->
            pairs rest
        | (si : Checker.segment) :: ((sj : Checker.segment) :: _ as rest) -> (
            let vi = si.view.View.id and vj = sj.view.View.id in
            let before_next =
              List.fold_left
                (fun acc (s : Checker.segment) ->
                  if s.view.View.id < vj then
                    List.fold_left
                      (fun acc (d : Checker.meta) -> Msg_id.Set.add d.id acc)
                      acc s.deliveries
                  else acc)
                Msg_id.Set.empty qsegs
            in
            let found =
              List.find_map
                (fun (m : Checker.meta) ->
                  let witnessed =
                    List.exists (fun p -> p <> q && delivered_pair p vi vj m) procs
                  in
                  if
                    witnessed
                    && not
                         (Checker.covered successors m.id
                            (Msg_id.Set.remove m.id before_next))
                  then Some (q, m.id)
                  else None)
                si.deliveries
            in
            match found with Some _ as r -> r | None -> pairs rest)
        | [ _ ] | [] -> None
      in
      pairs qsegs)
    segs

(* A candidate for the recovery mutation: a process whose log has an
   incarnation boundary (view-id gap between consecutive installs) and
   at least one delivery before it. Returns the last such pre-crash
   delivery plus the readmitting view's id. *)
let find_restart_dup check =
  List.find_map
    (fun q ->
      let rec scan last_delivered = function
        | (si : Checker.segment) :: ((sj : Checker.segment) :: _ as rest) -> (
            let last_delivered =
              match List.rev si.deliveries with d :: _ -> Some d | [] -> last_delivered
            in
            match last_delivered with
            | Some (m : Checker.meta) when sj.view.View.id > si.view.View.id + 1 ->
                Some (q, m, sj.view.View.id)
            | _ -> scan last_delivered rest)
        | [ _ ] | [] -> None
      in
      scan None (Checker.segments check ~p:q))
    (Checker.processes check)

(* Re-record the run into a fresh checker, each process's log passed
   through [edit p]. *)
let replay check edit =
  let mutated = Checker.create () in
  List.iter (Checker.record_multicast mutated) (Checker.multicast_log check);
  List.iter
    (fun p ->
      List.iter
        (function
          | Checker.Installed v -> Checker.record_install mutated ~p v
          | Checker.Delivered m -> Checker.record_delivery mutated ~p m)
        (edit p (Checker.process_log check ~p)))
    (Checker.processes check);
  mutated

(* [q] re-delivers [m] right after it installs the view [after_view] —
   an amnesiac restart re-delivering a message its lost log had already
   delivered. *)
let replay_with_duplicate check ~q ~(m : Checker.meta) ~after_view =
  replay check (fun p log ->
      if p <> q then log
      else
        List.concat_map
          (function
            | Checker.Installed v as e when v.View.id = after_view ->
                [ e; Checker.Delivered m ]
            | e -> [ e ])
          log)

(* [q]'s first delivery of [id] never happened. *)
let replay_without check ~q ~id =
  let rec drop_first = function
    | Checker.Delivered (m : Checker.meta) :: rest when Msg_id.equal m.id id -> rest
    | e :: rest -> e :: drop_first rest
    | [] -> []
  in
  replay check (fun p log -> if p = q then drop_first log else log)

(* Forge a secondary primary component: replay the run with one
   process recording the install of a view (id one past the global
   maximum, membership just itself) that no member of the real primary
   chain ever installed — exactly the log a minority that elected
   itself would leave behind. Prefer a process that missed the final
   view (the minority side of an unhealed split); when every process
   installed it, cut a log at a crash–rejoin incarnation boundary
   first so the forged view has no co-installer. *)
let find_split_brain_target check =
  let procs = Checker.processes check in
  let max_id =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc -> function
            | Checker.Installed v -> max acc v.View.id
            | Checker.Delivered _ -> acc)
          acc (Checker.process_log check ~p))
      (-1) procs
  in
  match
    List.find_opt
      (fun p ->
        not
          (List.exists
             (function
               | Checker.Installed v -> v.View.id = max_id
               | Checker.Delivered _ -> false)
             (Checker.process_log check ~p)))
      procs
  with
  | Some p -> Some (p, max_id, `Append)
  | None -> (
      match
        List.find_map
          (fun p ->
            let rec scan idx last = function
              | Checker.Installed v :: rest -> (
                  match last with
                  | Some last_id when v.View.id > last_id + 1 ->
                      Some (p, max_id, `Truncate idx)
                  | Some _ | None -> scan (idx + 1) (Some v.View.id) rest)
              | Checker.Delivered _ :: rest -> scan (idx + 1) last rest
              | [] -> None
            in
            scan 0 None (Checker.process_log check ~p))
          procs
      with
      | Some t -> Some t
      | None -> (
          (* Every process installed the final view and no log has a
             crash boundary: erase one victim's record of the final
             view (everyone else still anchors it in the chain) and
             let it claim its own singleton successor instead. *)
          match procs with
          | p :: _ :: _ ->
              let rec find_idx idx = function
                | Checker.Installed v :: _ when v.View.id = max_id ->
                    Some (p, max_id, `Truncate idx)
                | _ :: rest -> find_idx (idx + 1) rest
                | [] -> None
              in
              find_idx 0 (Checker.process_log check ~p)
          | _ -> None))

let replay_with_split_brain check ~target ~max_id ~cut =
  replay check (fun p log ->
      if p <> target then log
      else
        let log =
          match cut with
          | `Truncate idx -> List.filteri (fun i _ -> i < idx) log
          | `Append -> log
        in
        log @ [ Checker.Installed (View.make ~id:(max_id + 1) ~members:[ p ]) ])

let counts check =
  List.fold_left
    (fun (d, i) p ->
      List.fold_left
        (fun (d, i) -> function
          | Checker.Delivered _ -> (d + 1, i)
          | Checker.Installed _ -> (d, i + 1))
        (d, i)
        (Checker.process_log check ~p))
    (0, 0) (Checker.processes check)

let check ?mutation ?expect_converged ~mode ~seed ~scenario check_t =
  let check_t, mutated =
    match mutation with
    | None | Some Evict_uncovered -> (check_t, None)
    | Some Drop_cover -> (
        match find_droppable check_t with
        | Some (q, id) -> (replay_without check_t ~q ~id, Some (q, id))
        | None ->
            failwith
              "Oracle.check: run too short to self-test (no safety-relevant delivery to \
               drop)")
    | Some Duplicate_after_restart -> (
        match find_restart_dup check_t with
        | Some (q, m, after_view) ->
            (replay_with_duplicate check_t ~q ~m ~after_view, Some (q, m.Checker.id))
        | None ->
            failwith
              "Oracle.check: no crash-rejoin incarnation boundary to duplicate across")
    | Some Split_brain -> (
        match find_split_brain_target check_t with
        | Some (target, max_id, cut) ->
            ( replay_with_split_brain check_t ~target ~max_id ~cut,
              Some (target, Msg_id.make ~sender:target ~sn:(max_id + 1)) )
        | None -> failwith "Oracle.check: no process log to forge a minority view into")
  in
  let violations =
    match mode with
    | Vs -> Checker.verify_strict_vs check_t
    | Svs -> Checker.verify check_t
  in
  let violations =
    match expect_converged with
    | None -> violations
    | Some survivors -> violations @ Checker.check_converged check_t ~survivors
  in
  let deliveries, installs = counts check_t in
  { mode; seed; scenario; violations; deliveries; installs; mutated; replay_args = [] }

let replay r =
  String.concat " "
    ([ "svs_chaos"; "--scenarios"; r.scenario; "--modes"; mode_label r.mode; "--seeds"; "1";
       "--seed-base"; string_of_int r.seed ]
    @ r.replay_args)

let pp_report ppf r =
  if ok r then
    Format.fprintf ppf "ok: seed=%d scenario=%s mode=%s (%d deliveries, %d installs)" r.seed
      r.scenario (mode_label r.mode) r.deliveries r.installs
  else begin
    Format.fprintf ppf
      "@[<v>CHAOS SAFETY VIOLATION seed=%d scenario=%s mode=%s (%d violation%s)%s@,\
       replay: %s" r.seed
      r.scenario (mode_label r.mode)
      (List.length r.violations)
      (if List.length r.violations = 1 then "" else "s")
      (match r.mutated with
      | Some (q, id) -> Format.asprintf " [mutated: %a at process %d]" Msg_id.pp id q
      | None -> "")
      (replay r);
    List.iter
      (fun v ->
        match view_pair v with
        | Some (vi, vj) when vi <> vj ->
            Format.fprintf ppf "@,  view pair (%d -> %d): %a" vi vj Checker.pp_violation v
        | Some (vi, _) -> Format.fprintf ppf "@,  view %d: %a" vi Checker.pp_violation v
        | None -> Format.fprintf ppf "@,  %a" Checker.pp_violation v)
      r.violations;
    Format.fprintf ppf "@]"
  end
