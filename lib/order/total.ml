module Msg_id = Svs_obs.Msg_id
module Annotation = Svs_obs.Annotation

type 'p data = {
  id : Msg_id.t;
  payload : 'p;
  ann : Annotation.t;
}

type 'p msg =
  | Mdata of 'p data
  | Morder of { seq : int; id : Msg_id.t }

type 'p slot = { meta : 'p data; mutable ghost : bool }

type 'p t = {
  me : int;
  members : int array;
  semantic : bool;
  send : dst:int -> 'p msg -> unit;
  store : (Msg_id.t, 'p slot) Hashtbl.t; (* received data, by id *)
  order : (int, Msg_id.t) Hashtbl.t; (* global sequence -> id *)
  mutable next_deliver : int;
  mutable next_assign : int; (* sequencer only *)
  mutable sent : int;
  mutable purged_count : int;
}

let create ~me ~members ?(semantic = true) ~send () =
  let members = Array.of_list (List.sort_uniq compare members) in
  if not (Array.exists (( = ) me) members) then
    invalid_arg "Total.create: me must be a member";
  {
    me;
    members;
    semantic;
    send;
    store = Hashtbl.create 64;
    order = Hashtbl.create 64;
    next_deliver = 0;
    next_assign = 0;
    sent = 0;
    purged_count = 0;
  }

let sequencer t = t.members.(0)

let next_seq t = t.next_deliver

let pending t = Hashtbl.length t.store

let purged t = t.purged_count

let covers older newer =
  Annotation.covers ~older:(older.id, older.ann) ~newer:(newer.id, newer.ann)

(* Receiver-side purge: ghost stored messages the fresh one obsoletes
   (and the fresh one if something stored already covers it). Ghosting
   is deterministic from the annotations, so every member skips the
   same sequence slots. *)
let purge_against t (fresh : 'p slot) =
  if t.semantic then
    Hashtbl.iter
      (fun _ (s : 'p slot) ->
        if s != fresh then begin
          if (not s.ghost) && covers s.meta fresh.meta
             && not (Msg_id.equal s.meta.id fresh.meta.id)
          then begin
            s.ghost <- true;
            t.purged_count <- t.purged_count + 1
          end;
          if (not fresh.ghost) && covers fresh.meta s.meta
             && not (Msg_id.equal s.meta.id fresh.meta.id)
          then begin
            fresh.ghost <- true;
            t.purged_count <- t.purged_count + 1
          end
        end)
      t.store

let sequence t id =
  if t.me = sequencer t then begin
    let seq = t.next_assign in
    t.next_assign <- seq + 1;
    Hashtbl.replace t.order seq id;
    Array.iter
      (fun dst -> if dst <> t.me then t.send ~dst (Morder { seq; id }))
      t.members
  end

let store_data t (data : 'p data) =
  if not (Hashtbl.mem t.store data.id) then begin
    let slot = { meta = data; ghost = false } in
    Hashtbl.replace t.store data.id slot;
    purge_against t slot;
    sequence t data.id
  end

let multicast t ?(ann = Annotation.Unrelated) payload =
  let id = Msg_id.make ~sender:t.me ~sn:t.sent in
  t.sent <- t.sent + 1;
  let data = { id; payload; ann } in
  Array.iter (fun dst -> if dst <> t.me then t.send ~dst (Mdata data)) t.members;
  store_data t data;
  data

let on_message t ~src:_ = function
  | Mdata data -> store_data t data
  | Morder { seq; id } -> Hashtbl.replace t.order seq id

module Cw = Svs_codec.Codec.Writer
module Cr = Svs_codec.Codec.Reader

let write_msg write_p w = function
  | Mdata data ->
      Cw.uint8 w 0;
      Svs_core.Wire_codec.write_msg_id w data.id;
      Svs_core.Wire_codec.write_annotation w data.ann;
      write_p w data.payload
  | Morder { seq; id } ->
      Cw.uint8 w 1;
      Cw.varint w seq;
      Svs_core.Wire_codec.write_msg_id w id

let read_msg read_p r =
  match Cr.uint8 r with
  | 0 ->
      let id = Svs_core.Wire_codec.read_msg_id r in
      let ann = Svs_core.Wire_codec.read_annotation r in
      let payload = read_p r in
      Mdata { id; payload; ann }
  | 1 ->
      let seq = Cr.varint r in
      let id = Svs_core.Wire_codec.read_msg_id r in
      Morder { seq; id }
  | n -> raise (Svs_codec.Codec.Malformed (Printf.sprintf "total-order tag %d" n))

let rec deliver t =
  match Hashtbl.find_opt t.order t.next_deliver with
  | None -> None
  | Some id -> (
      match Hashtbl.find_opt t.store id with
      | None -> None (* data still in flight *)
      | Some slot ->
          let seq = t.next_deliver in
          t.next_deliver <- seq + 1;
          Hashtbl.remove t.store id;
          Hashtbl.remove t.order seq;
          if slot.ghost then deliver t else Some (seq, slot.meta))

let deliver_all t =
  let rec go acc = match deliver t with None -> List.rev acc | Some d -> go (d :: acc) in
  go []
