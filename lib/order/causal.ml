module Msg_id = Svs_obs.Msg_id
module Annotation = Svs_obs.Annotation

type 'p data = {
  id : Msg_id.t;
  payload : 'p;
  ann : Annotation.t;
}

type 'p msg = { data : 'p data; vc : int array }

type 'p entry = {
  meta : 'p data;
  vc : int array;
  mutable ghost : bool; (* payload purged; kept for causal accounting *)
}

type 'p t = {
  me : int;
  members : int array;
  index : (int, int) Hashtbl.t; (* member -> position *)
  accounted : int array; (* D: delivered-or-ghosted count per member *)
  mutable sent : int;
  mutable buffer : 'p entry list; (* arrival order *)
  semantic : bool;
  send : dst:int -> 'p msg -> unit;
  mutable purged_count : int;
}

let create ~me ~members ?(semantic = true) ~send () =
  let members = Array.of_list (List.sort_uniq compare members) in
  if not (Array.exists (( = ) me) members) then
    invalid_arg "Causal.create: me must be a member";
  let index = Hashtbl.create 8 in
  Array.iteri (fun i p -> Hashtbl.replace index p i) members;
  {
    me;
    members;
    index;
    accounted = Array.make (Array.length members) 0;
    sent = 0;
    buffer = [];
    semantic;
    send;
    purged_count = 0;
  }

let idx t p = Hashtbl.find t.index p

let covers older newer =
  Annotation.covers ~older:(older.id, older.ann) ~newer:(newer.id, newer.ann)

(* Ghost the buffered messages the new entry obsoletes (and the new
   entry itself if something newer already covers it). *)
let purge_against t (fresh : 'p entry) =
  if t.semantic then begin
    List.iter
      (fun e ->
        if e != fresh && not e.ghost then begin
          if covers e.meta fresh.meta && not (Msg_id.equal e.meta.id fresh.meta.id) then begin
            e.ghost <- true;
            t.purged_count <- t.purged_count + 1
          end;
          if (not fresh.ghost) && covers fresh.meta e.meta
             && not (Msg_id.equal e.meta.id fresh.meta.id)
          then begin
            fresh.ghost <- true;
            t.purged_count <- t.purged_count + 1
          end
        end)
      t.buffer
  end

let insert t meta vc =
  let entry = { meta; vc; ghost = false } in
  t.buffer <- t.buffer @ [ entry ];
  purge_against t entry

let multicast t ?(ann = Annotation.Unrelated) payload =
  let id = Msg_id.make ~sender:t.me ~sn:t.sent in
  t.sent <- t.sent + 1;
  let vc = Array.copy t.accounted in
  vc.(idx t t.me) <- id.Msg_id.sn + 1;
  let data = { id; payload; ann } in
  Array.iter (fun dst -> if dst <> t.me then t.send ~dst { data; vc }) t.members;
  insert t data vc;
  data

let on_message t ~src:_ { data; vc } = insert t data vc

let deliverable t (e : 'p entry) =
  let s = idx t e.meta.id.Msg_id.sender in
  e.vc.(s) = t.accounted.(s) + 1
  && Array.for_all Fun.id
       (Array.mapi (fun q v -> q = s || v <= t.accounted.(q)) e.vc)

let account t (e : 'p entry) =
  let s = idx t e.meta.id.Msg_id.sender in
  t.accounted.(s) <- t.accounted.(s) + 1;
  t.buffer <- List.filter (fun x -> x != e) t.buffer

(* Pull the next causally deliverable real message, silently accounting
   any deliverable ghosts on the way. *)
let rec deliver t =
  match List.find_opt (deliverable t) t.buffer with
  | None -> None
  | Some e ->
      account t e;
      if e.ghost then deliver t else Some e.meta

let deliver_all t =
  let rec go acc = match deliver t with None -> List.rev acc | Some d -> go (d :: acc) in
  go []

let pending t = List.length t.buffer

let purged t = t.purged_count

module Cw = Svs_codec.Codec.Writer
module Cr = Svs_codec.Codec.Reader

let write_msg write_p w { data; vc } =
  Svs_core.Wire_codec.write_msg_id w data.id;
  Svs_core.Wire_codec.write_annotation w data.ann;
  write_p w data.payload;
  Cw.list w (fun w v -> Cw.varint w v) (Array.to_list vc)

let read_msg read_p r =
  let id = Svs_core.Wire_codec.read_msg_id r in
  let ann = Svs_core.Wire_codec.read_annotation r in
  let payload = read_p r in
  let vc = Array.of_list (Cr.list r Cr.varint) in
  { data = { id; payload; ann }; vc }

let delivered_vector t =
  Array.to_list (Array.mapi (fun i p -> (p, t.accounted.(i))) t.members)
