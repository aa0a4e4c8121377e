module Msg_id = Svs_obs.Msg_id
module Annotation = Svs_obs.Annotation

type meta = {
  id : Msg_id.t;
  ann : Annotation.t;
  view_id : int;
}

type pevent = Deliver of meta | Install of View.t

type t = {
  multicasts : (Msg_id.t, meta) Hashtbl.t;
  mutable multicast_order : meta list; (* reversed *)
  processes : (int, pevent list ref) Hashtbl.t; (* reversed logs *)
}

type violation =
  | Created of { p : int; id : Msg_id.t }
  | Duplicated of { p : int; id : Msg_id.t }
  | Fifo_order of { p : int; first : Msg_id.t; second : Msg_id.t }
  | Svs_hole of { p : int; q : int; view_id : int; missing : Msg_id.t }
  | Fifo_sr_hole of { p : int; view_id : int; missing : Msg_id.t; because : Msg_id.t }
  | View_disagreement of { p : int; q : int; view_id : int }
  | Vs_mismatch of { p : int; q : int; view_id : int; missing : Msg_id.t }
  | Split_brain of { p : int; view_id : int; prev_view_id : int }
  | Not_converged of { p : int; last_view_id : int; final_view_id : int }

let pp_violation ppf = function
  | Created { p; id } -> Format.fprintf ppf "process %d delivered never-multicast %a" p Msg_id.pp id
  | Duplicated { p; id } -> Format.fprintf ppf "process %d delivered %a twice" p Msg_id.pp id
  | Fifo_order { p; first; second } ->
      Format.fprintf ppf "process %d delivered %a before %a (FIFO violation)" p Msg_id.pp
        first Msg_id.pp second
  | Svs_hole { p; q; view_id; missing } ->
      Format.fprintf ppf
        "SVS: %a delivered by %d in view %d has no cover delivered by %d before its next \
         install"
        Msg_id.pp missing p view_id q
  | Fifo_sr_hole { p; view_id; missing; because } ->
      Format.fprintf ppf
        "FIFO-SR: process %d delivered %a in view %d but no cover of predecessor %a"
        p Msg_id.pp because view_id Msg_id.pp missing
  | View_disagreement { p; q; view_id } ->
      Format.fprintf ppf "processes %d and %d installed different memberships for view %d" p
        q view_id
  | Vs_mismatch { p; q; view_id; missing } ->
      Format.fprintf ppf
        "strict VS: %a delivered by %d in view %d but not by %d" Msg_id.pp missing p view_id
        q
  | Split_brain { p; view_id; prev_view_id } ->
      Format.fprintf ppf
        "split brain: view %d (installed by %d) shares no installer with the previous \
         primary view %d"
        view_id p prev_view_id
  | Not_converged { p; last_view_id; final_view_id } ->
      Format.fprintf ppf
        "not converged: process %d ended in view %d, not the final primary view %d" p
        last_view_id final_view_id

let violation_to_string v = Format.asprintf "%a" pp_violation v

let create () =
  { multicasts = Hashtbl.create 256; multicast_order = []; processes = Hashtbl.create 16 }

let record_multicast t meta =
  Hashtbl.replace t.multicasts meta.id meta;
  t.multicast_order <- meta :: t.multicast_order

let plog t p =
  match Hashtbl.find_opt t.processes p with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace t.processes p l;
      l

let record_delivery t ~p meta = plog t p := Deliver meta :: !(plog t p)

let record_install t ~p view = plog t p := Install view :: !(plog t p)

(* --- Obsolescence reachability over the transitive closure. --- *)

(* successors.(id) = messages that directly obsolete id. *)
let build_successors t =
  let succ : (Msg_id.t, Msg_id.t list ref) Hashtbl.t = Hashtbl.create 256 in
  let all = List.rev t.multicast_order in
  let note older newer =
    match Hashtbl.find_opt succ older.id with
    | Some l -> l := newer.id :: !l
    | None -> Hashtbl.replace succ older.id (ref [ newer.id ])
  in
  List.iter
    (fun older ->
      List.iter
        (fun newer ->
          if
            (not (Msg_id.equal older.id newer.id))
            && Annotation.obsoletes ~older:(older.id, older.ann) ~newer:(newer.id, newer.ann)
          then note older newer)
        all)
    all;
  fun id -> match Hashtbl.find_opt succ id with Some l -> !l | None -> []

(* [covered successors m targets]: does some m' with m ⊑* m' belong to
   [targets]? BFS over the closure. *)
let covered successors (id : Msg_id.t) targets =
  let visited = Hashtbl.create 16 in
  let rec bfs = function
    | [] -> false
    | x :: rest ->
        if Hashtbl.mem visited x then bfs rest
        else begin
          Hashtbl.replace visited x ();
          if Msg_id.Set.mem x targets then true else bfs (successors x @ rest)
        end
  in
  bfs [ id ]

(* --- Per-process view segmentation. --- *)

type segment = { view : View.t; deliveries : meta list (* in order *) }

(* Segments in order; a process's deliveries in segment i happen
   between installing segment i's view and the next install. *)
let segments_of events =
  let flush current acc =
    match current with
    | None -> acc
    | Some (view, ds) -> { view; deliveries = List.rev ds } :: acc
  in
  let rec split current acc = function
    | [] -> List.rev (flush current acc)
    | Install v :: rest -> split (Some (v, [])) (flush current acc) rest
    | Deliver _ :: _ when current = None ->
        invalid_arg "Checker: delivery recorded before the process's initial install"
    | Deliver m :: rest -> (
        match current with
        | None -> assert false
        | Some (view, ds) -> split (Some (view, m :: ds)) acc rest)
  in
  split None [] events

type recorded = Delivered of meta | Installed of View.t

let multicast_log t = List.rev t.multicast_order

let processes t =
  List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) t.processes [])

let process_log t ~p =
  match Hashtbl.find_opt t.processes p with
  | None -> []
  | Some log ->
      List.rev_map (function Deliver m -> Delivered m | Install v -> Installed v) !log

let segments t ~p =
  match Hashtbl.find_opt t.processes p with
  | None -> []
  | Some log -> segments_of (List.rev !log)

(* --- Checks. --- *)

let check_integrity_and_fifo t violations =
  Hashtbl.iter
    (fun p log ->
      let seen = Hashtbl.create 64 in
      let last_sn = Hashtbl.create 16 in
      List.iter
        (function
          | Install _ -> ()
          | Deliver m ->
              if not (Hashtbl.mem t.multicasts m.id) then
                violations := Created { p; id = m.id } :: !violations;
              if Hashtbl.mem seen m.id then
                violations := Duplicated { p; id = m.id } :: !violations
              else Hashtbl.replace seen m.id ();
              (match Hashtbl.find_opt last_sn m.id.Msg_id.sender with
              | Some (prev_sn, prev_id) when m.id.Msg_id.sn <= prev_sn ->
                  violations :=
                    Fifo_order { p; first = prev_id; second = m.id } :: !violations
              | Some _ | None -> ());
              Hashtbl.replace last_sn m.id.Msg_id.sender (m.id.Msg_id.sn, m.id))
        (List.rev !log))
    t.processes

(* All (p, segments) pairs. *)
let all_segments t =
  Hashtbl.fold (fun p log acc -> (p, segments_of (List.rev !log)) :: acc) t.processes []

(* Deliveries of a process strictly before it installs the view with
   id [view_id] (i.e. everything in segments with a smaller view id). *)
let delivered_before segs ~view_id =
  List.fold_left
    (fun acc s ->
      if s.view.View.id < view_id then
        List.fold_left (fun acc m -> Msg_id.Set.add m.id acc) acc s.deliveries
      else acc)
    Msg_id.Set.empty segs

(* Only installs with consecutive view {e ids} form a pair: a
   rejoining process's log has a view-id gap at the crash (the
   readmitting view is at least two past the last one it installed),
   and the §4 contracts quantify over consecutive views of one
   incarnation, not across a crash. *)
let consecutive_pairs segs =
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        if b.view.View.id = a.view.View.id + 1 then (a, b) :: pairs rest
        else pairs rest
    | [ _ ] | [] -> []
  in
  pairs segs

(* Tag each segment with the view id at which its incarnation started:
   a view-id jump between consecutive installs marks a crash–rejoin
   boundary. *)
let incarnation_starts segs =
  let _, tagged =
    List.fold_left
      (fun (prev, acc) s ->
        let start =
          match prev with
          | Some (prev_id, start) when s.view.View.id = prev_id + 1 -> start
          | _ -> s.view.View.id
        in
        (Some (s.view.View.id, start), (s, start) :: acc))
      (None, []) segs
  in
  List.rev tagged

let check_view_agreement all violations =
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun (p, segs) ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt by_id s.view.View.id with
          | None -> Hashtbl.replace by_id s.view.View.id (p, s.view)
          | Some (q, v) ->
              if not (View.equal v s.view) then
                violations := View_disagreement { p; q; view_id = s.view.View.id } :: !violations)
        segs)
    all

(* No split brain: every installed view of an execution belongs to one
   totally-ordered primary chain. With view agreement already enforced
   (one membership per id), the checkable residue is continuity:
   ordering the distinct installed views by id, every view must share
   at least one installer with its predecessor in the chain. A real
   transition always has such a witness — the surviving members install
   both views, and a SYNC-admitted joiner's view is also installed by
   its sponsor — whereas a minority that declares its own view after a
   partition has, by construction, installed none of the primary's
   views since the split. *)
let check_primary_chain all violations =
  let installers : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (p, segs) ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt installers s.view.View.id with
          | Some l -> if not (List.mem p !l) then l := p :: !l
          | None -> Hashtbl.replace installers s.view.View.id (ref [ p ]))
        segs)
    all;
  let ids = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) installers []) in
  let rec walk = function
    | u :: (v :: _ as rest) ->
        let iu = !(Hashtbl.find installers u) in
        let iv = !(Hashtbl.find installers v) in
        if not (List.exists (fun p -> List.mem p iu) iv) then
          violations :=
            Split_brain { p = List.hd iv; view_id = v; prev_view_id = u } :: !violations;
        walk rest
    | [ _ ] | [] -> ()
  in
  walk ids

let check_svs successors all violations =
  (* For p installing v_i and v_{i+1}: every m delivered by p in v_i
     must be covered at every q that installed both. *)
  List.iter
    (fun (p, psegs) ->
      List.iter
        (fun (si, sj) ->
          List.iter
            (fun (q, qsegs) ->
              if q <> p then
                let q_has_both =
                  List.exists (fun s -> s.view.View.id = si.view.View.id) qsegs
                  && List.exists (fun s -> s.view.View.id = sj.view.View.id) qsegs
                in
                if q_has_both then begin
                  let q_delivered = delivered_before qsegs ~view_id:sj.view.View.id in
                  List.iter
                    (fun m ->
                      if not (covered successors m.id q_delivered) then
                        violations :=
                          Svs_hole { p; q; view_id = si.view.View.id; missing = m.id }
                          :: !violations)
                    si.deliveries
                end)
            all)
        (consecutive_pairs psegs))
    all

let check_fifo_sr t successors all violations =
  (* Clause (ii): p installing v_i, v_{i+1} and delivering m' in v_i
     owes a cover for every same-sender predecessor m of m' — except
     predecessors multicast before p's current incarnation was
     readmitted (the sponsor's state transfer settles those: its
     delivery floors certify they were delivered or obsoleted on the
     group's behalf while p was down), and except predecessors
     multicast by an {e earlier incarnation of the sender} than m'.
     The clause quantifies over one sender incarnation: a message that
     died in flight when its sender was cut off — never delivered in
     any primary view before the sender rejoined as a fresh
     incarnation — carries no obligation (per-view agreement on
     anything actually delivered is enforced by {!check_svs}). *)
  let multicast_sns = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (m : meta) ->
      let l =
        match Hashtbl.find_opt multicast_sns m.id.Msg_id.sender with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace multicast_sns m.id.Msg_id.sender l;
            l
      in
      l := m :: !l)
    t.multicasts;
  (* Greatest incarnation-start view id of [sender] at or below
     [view_id] — which incarnation of the sender a message multicast
     in [view_id] belongs to. *)
  let sender_starts = Hashtbl.create 16 in
  List.iter
    (fun (p, segs) ->
      Hashtbl.replace sender_starts p
        (List.sort_uniq compare (List.map snd (incarnation_starts segs))))
    all;
  let sender_incarnation sender view_id =
    match Hashtbl.find_opt sender_starts sender with
    | None -> 0
    | Some starts -> List.fold_left (fun acc s -> if s <= view_id then s else acc) 0 starts
  in
  List.iter
    (fun (p, psegs) ->
      let starts = Hashtbl.create 8 in
      List.iter
        (fun (s, start) -> Hashtbl.replace starts s.view.View.id start)
        (incarnation_starts psegs);
      List.iter
        (fun (si, sj) ->
          let incarnation_start =
            match Hashtbl.find_opt starts si.view.View.id with
            | Some s -> s
            | None -> assert false
          in
          let owed = delivered_before psegs ~view_id:sj.view.View.id in
          let owed =
            List.fold_left (fun acc m -> Msg_id.Set.add m.id acc) owed si.deliveries
          in
          (* Highest delivered sn per sender up to installing v_{i+1}. *)
          let max_sn = Hashtbl.create 8 in
          Msg_id.Set.iter
            (fun id ->
              let cur =
                match Hashtbl.find_opt max_sn id.Msg_id.sender with
                | Some sn -> sn
                | None -> -1
              in
              if id.Msg_id.sn > cur then Hashtbl.replace max_sn id.Msg_id.sender id.Msg_id.sn)
            owed;
          Hashtbl.iter
            (fun sender max ->
              match Hashtbl.find_opt multicast_sns sender with
              | None -> ()
              | Some metas ->
                  (* The incarnation of the witness (max-sn) message:
                     obligations reach back only within it. A delivered
                     message with no multicast record (a forged id from
                     a log mutation) pins the witness to the sender's
                     latest incarnation. *)
                  let witness_incarnation =
                    List.fold_left
                      (fun acc (m : meta) ->
                        if m.id.Msg_id.sn = max then sender_incarnation sender m.view_id
                        else acc)
                      (sender_incarnation sender max_int)
                      !metas
                  in
                  List.iter
                    (fun (m : meta) ->
                      if
                        m.view_id >= incarnation_start
                        && sender_incarnation sender m.view_id = witness_incarnation
                        && m.id.Msg_id.sn < max
                        && not (covered successors m.id owed)
                      then
                        violations :=
                          Fifo_sr_hole
                            {
                              p;
                              view_id = si.view.View.id;
                              missing = m.id;
                              because = Msg_id.make ~sender ~sn:max;
                            }
                          :: !violations)
                    !metas)
            max_sn)
        (consecutive_pairs psegs))
    all

let verify t =
  let violations = ref [] in
  check_integrity_and_fifo t violations;
  let all = all_segments t in
  check_view_agreement all violations;
  check_primary_chain all violations;
  let successors = build_successors t in
  check_svs successors all violations;
  check_fifo_sr t successors all violations;
  List.rev !violations

(* Liveness after heal: every given process must have ended the run in
   the final primary view. Which processes to demand this of is the
   caller's knowledge (everyone that was not crashed at the end), not
   the log's, so it is a separate check from {!verify}. *)
let check_converged t ~survivors =
  let all = all_segments t in
  let final =
    List.fold_left
      (fun acc (_, segs) ->
        List.fold_left
          (fun acc s ->
            match acc with
            | Some (v : View.t) when v.View.id >= s.view.View.id -> acc
            | Some _ | None -> Some s.view)
          acc segs)
      None all
  in
  match final with
  | None -> []
  | Some fv ->
      List.filter_map
        (fun p ->
          let last =
            match List.assoc_opt p all with
            | None | Some [] -> -1
            | Some segs -> (List.nth segs (List.length segs - 1)).view.View.id
          in
          if last <> fv.View.id || not (View.mem p fv) then
            Some (Not_converged { p; last_view_id = last; final_view_id = fv.View.id })
          else None)
        (List.sort compare survivors)

let check_strict_vs all violations =
  List.iter
    (fun (p, psegs) ->
      List.iter
        (fun (si, sj) ->
          List.iter
            (fun (q, qsegs) ->
              if q <> p then
                let q_has_next =
                  List.exists (fun s -> s.view.View.id = sj.view.View.id) qsegs
                in
                match
                  List.find_opt (fun s -> s.view.View.id = si.view.View.id) qsegs
                with
                | Some qseg when q_has_next ->
                    let q_set =
                      List.fold_left
                        (fun acc m -> Msg_id.Set.add m.id acc)
                        Msg_id.Set.empty qseg.deliveries
                    in
                    List.iter
                      (fun m ->
                        if not (Msg_id.Set.mem m.id q_set) then
                          violations :=
                            Vs_mismatch
                              { p; q; view_id = si.view.View.id; missing = m.id }
                            :: !violations)
                      si.deliveries
                | Some _ | None -> ())
            all)
        (consecutive_pairs psegs))
    all

let verify_strict_vs t =
  let base = verify t in
  let violations = ref [] in
  check_strict_vs (all_segments t) violations;
  base @ List.rev !violations
