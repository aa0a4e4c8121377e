(* Per-relation indexes over the queued messages of each view. The
   queue is purge-closed between inserts (every incremental purge ran
   to completion), which is what makes the per-key structures small:
   two queued messages of one view can never obsolete one another, so
   e.g. at most one entry per (sender, tag) key can be queued.

   Every map is keyed by plain ints under a per-sender record, so a
   probe builds no tuple key, and lookups use [Hashtbl.find] rather
   than [find_opt]: probing for an unannotated message allocates
   nothing. *)

type 'h entry = {
  id : Msg_id.t;
  ann : Annotation.t;
  seq : int;
  handle : 'h;
}

type 'h victim = { victim_id : Msg_id.t; victim_ann : Annotation.t; victim_handle : 'h }

(* One sender's queued entries. [by_sn] is a hash table, not a ring
   sorted by sn: a sender's messages may be indexed in any sn order
   (view-change injection, out-of-order tests). *)
type 'h sender = {
  by_sn : (int, 'h entry) Hashtbl.t; (* sn -> queued entry *)
  by_tag : (int, 'h entry) Hashtbl.t; (* tag -> the lineage's queued entry *)
  by_pred : (int, 'h entry list ref) Hashtbl.t; (* named sn -> Enum entries *)
  mutable hwm : int; (* highest sn queued since the view last drained *)
  mutable kwin : int; (* widest Kenum window queued since then *)
}

(* One view's indexes. When its last entry leaves, the high-water marks
   reset but the tables are kept for the view's next message, so a
   queue that drains after every message (the common case) reuses them
   instead of rebuilding them; a drained view's state is dropped once
   another view holds entries. *)
type 'h vstate = {
  senders : (int, 'h sender) Hashtbl.t;
  mutable sender_list : 'h sender list; (* [senders]' values, walked on drain without a closure *)
  mutable preds : int; (* Enum entries queued; the reverse Enum probe is skipped at 0 *)
  mutable live : int;
}

type 'h t = (int, 'h vstate) Hashtbl.t

let create () : 'h t = Hashtbl.create 4

let new_vstate () = { senders = Hashtbl.create 8; sender_list = []; preds = 0; live = 0 }

(* The view's state, created on first use. A new view first drops every
   drained view (there is at most one in steady state) and takes over
   its tables. *)
let vstate (t : 'h t) view =
  match Hashtbl.find t view with
  | vs -> vs
  | exception Not_found ->
      let drained =
        Hashtbl.fold (fun v vs acc -> if vs.live = 0 then (v, vs) :: acc else acc) t []
      in
      List.iter (fun (v, _) -> Hashtbl.remove t v) drained;
      let vs = match drained with (_, vs) :: _ -> vs | [] -> new_vstate () in
      Hashtbl.replace t view vs;
      vs

let sender vs s =
  match Hashtbl.find vs.senders s with
  | ss -> ss
  | exception Not_found ->
      let ss =
        {
          by_sn = Hashtbl.create 64;
          by_tag = Hashtbl.create 8;
          by_pred = Hashtbl.create 8;
          hwm = min_int;
          kwin = 0;
        }
      in
      Hashtbl.replace vs.senders s ss;
      vs.sender_list <- ss :: vs.sender_list;
      ss

let cardinal (t : 'h t) ~view =
  match Hashtbl.find t view with vs -> vs.live | exception Not_found -> 0

let add (t : 'h t) ~view ~(id : Msg_id.t) ~ann handle ~seq =
  let vs = vstate t view in
  let ss = sender vs id.Msg_id.sender in
  let e = { id; ann; seq; handle } in
  Hashtbl.replace ss.by_sn id.Msg_id.sn e;
  (match ann with
  | Annotation.Unrelated -> ()
  | Annotation.Tag g -> Hashtbl.replace ss.by_tag g e
  | Annotation.Enum preds ->
      vs.preds <- vs.preds + 1;
      List.iter
        (fun (p : Msg_id.t) ->
          let ps = sender vs p.Msg_id.sender in
          match Hashtbl.find ps.by_pred p.Msg_id.sn with
          | bucket ->
              if not (List.exists (fun e' -> Msg_id.equal e'.id id) !bucket) then
                bucket := e :: !bucket
          | exception Not_found -> Hashtbl.replace ps.by_pred p.Msg_id.sn (ref [ e ]))
        preds
  | Annotation.Kenum bm -> if Bitvec.k bm > ss.kwin then ss.kwin <- Bitvec.k bm);
  if id.Msg_id.sn > ss.hwm then ss.hwm <- id.Msg_id.sn;
  vs.live <- vs.live + 1

let reset_marks ss =
  ss.hwm <- min_int;
  ss.kwin <- 0

let remove (t : 'h t) ~view ~(id : Msg_id.t) ~ann =
  match Hashtbl.find t view with
  | exception Not_found -> ()
  | vs -> (
      match Hashtbl.find vs.senders id.Msg_id.sender with
      | exception Not_found -> () (* never indexed (e.g. semantic purging off) *)
      | ss ->
          if Hashtbl.mem ss.by_sn id.Msg_id.sn then begin
            Hashtbl.remove ss.by_sn id.Msg_id.sn;
            (match ann with
            | Annotation.Unrelated | Annotation.Kenum _ -> ()
            | Annotation.Tag g -> (
                match Hashtbl.find ss.by_tag g with
                | e when Msg_id.equal e.id id -> Hashtbl.remove ss.by_tag g
                | _ | (exception Not_found) -> ())
            | Annotation.Enum preds ->
                vs.preds <- vs.preds - 1;
                List.iter
                  (fun (p : Msg_id.t) ->
                    match Hashtbl.find vs.senders p.Msg_id.sender with
                    | exception Not_found -> ()
                    | ps -> (
                        match Hashtbl.find ps.by_pred p.Msg_id.sn with
                        | exception Not_found -> ()
                        | bucket -> (
                            match List.filter (fun e -> not (Msg_id.equal e.id id)) !bucket with
                            | [] -> Hashtbl.remove ps.by_pred p.Msg_id.sn
                            | rest -> bucket := rest)))
                  preds);
            vs.live <- vs.live - 1;
            if vs.live = 0 then begin
              List.iter reset_marks vs.sender_list;
              if Hashtbl.length t > 1 then Hashtbl.remove t view
            end
          end)

(* Reverse-direction probes: would some queued entry of the view
   obsolete a fresh (id, ann)? Only bounded-fan-in lookups.
   - Tag: the (sender, tag) slot, if held by a higher sn.
   - Enum: the entries that enumerate [id] as a predecessor — skipped
     while no Enum entry is queued.
   - Kenum: same-sender entries within the widest queued window above
     [id.sn] — skipped entirely when the high-water mark shows nothing
     queued above [id.sn]. The Enum and Kenum checks do not depend on
     the fresh message's own annotation. *)

let rec names_as_older (id : Msg_id.t) = function
  | [] -> false
  | e :: rest ->
      ((not (Msg_id.equal e.id id))
      && (e.id.Msg_id.sender <> id.Msg_id.sender || id.Msg_id.sn < e.id.Msg_id.sn))
      || names_as_older id rest

let obsoleted_by_enum vs ss ~(id : Msg_id.t) =
  vs.preds > 0
  && match Hashtbl.find ss.by_pred id.Msg_id.sn with
     | bucket -> names_as_older id !bucket
     | exception Not_found -> false

let rec kenum_covers ss ~sn d lim =
  d <= lim
  && ((match Hashtbl.find ss.by_sn (sn + d) with
      | { ann = Annotation.Kenum bm; _ } -> Bitvec.get bm d
      | _ -> false
      | exception Not_found -> false)
     || kenum_covers ss ~sn (d + 1) lim)

let obsoleted_by_kenum ss ~(id : Msg_id.t) =
  ss.hwm > id.Msg_id.sn
  && kenum_covers ss ~sn:id.Msg_id.sn 1 (Stdlib.min ss.kwin (ss.hwm - id.Msg_id.sn))

(* The reverse probes need the fresh message's own sender: without an
   entry of it queued or named, nothing queued can obsolete it. *)
let obsoleted_reverse vs ~(id : Msg_id.t) =
  match Hashtbl.find vs.senders id.Msg_id.sender with
  | ss -> obsoleted_by_enum vs ss ~id || obsoleted_by_kenum ss ~id
  | exception Not_found -> false

(* The queued entry of [sender]'s [sn]. @raise Not_found *)
let entry vs ~sender ~sn = Hashtbl.find (Hashtbl.find vs.senders sender).by_sn sn

(* The queued entry of [sender]'s tag lineage [g]. @raise Not_found *)
let tagged vs ~sender g = Hashtbl.find (Hashtbl.find vs.senders sender).by_tag g

let plan (t : 'h t) ~view ~(id : Msg_id.t) ~ann =
  match (Hashtbl.find t view, ann) with
  | exception Not_found -> ([], false)
  | vs, _ when vs.live = 0 ->
      (* A drained queue holds nothing to probe; walking a Kenum bitmap
         alone costs O(k). *)
      ([], false)
  | vs, Annotation.Unrelated ->
      (* Nothing to obsolete: the reverse probes alone, answered with a
         constant pair. *)
      if obsoleted_reverse vs ~id then ([], true) else ([], false)
  | vs, _ ->
      let victims = ref [] in
      let drop = ref false in
      (* Forward: queued entries the fresh message obsoletes. Probes
         mirror Annotation.obsoletes with the fresh message as newer.
         The Tag probe doubles as the reverse Tag check: one lookup
         decides victim (lower sn) or drop (higher sn). *)
      (match ann with
      | Annotation.Unrelated -> ()
      | Annotation.Tag g -> (
          match tagged vs ~sender:id.Msg_id.sender g with
          | e ->
              if e.id.Msg_id.sn < id.Msg_id.sn then victims := [ e ]
              else if e.id.Msg_id.sn > id.Msg_id.sn then drop := true
          | exception Not_found -> ())
      | Annotation.Enum preds ->
          List.iter
            (fun (p : Msg_id.t) ->
              if not (Msg_id.equal p id) then
                match entry vs ~sender:p.Msg_id.sender ~sn:p.Msg_id.sn with
                | e
                  when e.id.Msg_id.sender <> id.Msg_id.sender || e.id.Msg_id.sn < id.Msg_id.sn
                  ->
                    victims := e :: !victims
                | _ | (exception Not_found) -> ())
            (List.sort_uniq Msg_id.compare preds)
      | Annotation.Kenum bm ->
          List.iter
            (fun d ->
              match entry vs ~sender:id.Msg_id.sender ~sn:(id.Msg_id.sn - d) with
              | e -> victims := e :: !victims
              | exception Not_found -> ())
            (Bitvec.distances bm));
      let victims =
        List.sort (fun a b -> Int.compare a.seq b.seq) !victims
        |> List.map (fun e -> { victim_id = e.id; victim_ann = e.ann; victim_handle = e.handle })
      in
      (victims, !drop || obsoleted_reverse vs ~id)
