module Codec = Svs_codec.Codec
module W = Codec.Writer
module R = Codec.Reader
module Msg_id = Svs_obs.Msg_id
module Annotation = Svs_obs.Annotation
module Bitvec = Svs_obs.Bitvec
open Types

type 'p payload_codec = {
  write : W.t -> 'p -> unit;
  read : R.t -> 'p;
}

let unit_codec = { write = (fun _ () -> ()); read = (fun _ -> ()) }

let int_codec = { write = W.zigzag; read = R.zigzag }

let string_codec = { write = W.bytes; read = R.bytes }

let pair_codec a b =
  {
    write =
      (fun w (x, y) ->
        a.write w x;
        b.write w y);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        (x, y));
  }

let write_msg_id w (id : Msg_id.t) =
  W.varint w id.Msg_id.sender;
  W.varint w id.Msg_id.sn

let read_msg_id r =
  let sender = R.varint r in
  let sn = R.varint r in
  Msg_id.make ~sender ~sn

let write_annotation w = function
  | Annotation.Unrelated -> W.uint8 w 0
  | Annotation.Tag tag ->
      W.uint8 w 1;
      W.zigzag w tag
  | Annotation.Enum preds ->
      W.uint8 w 2;
      W.list w write_msg_id preds
  | Annotation.Kenum bm ->
      W.uint8 w 3;
      W.varint w (Bitvec.k bm);
      W.raw w (Bitvec.to_bytes bm)

let read_annotation r =
  match R.uint8 r with
  | 0 -> Annotation.Unrelated
  | 1 -> Annotation.Tag (R.zigzag r)
  | 2 -> Annotation.Enum (R.list r read_msg_id)
  | 3 ->
      let k = R.varint r in
      Annotation.Kenum (Bitvec.of_bytes ~k (R.raw r ((k + 7) / 8)))
  | n -> raise (Codec.Malformed (Printf.sprintf "annotation tag %d" n))

let write_view w (v : View.t) =
  W.varint w v.View.id;
  W.list w (fun w p -> W.varint w p) v.View.members

let read_view r =
  let id = R.varint r in
  let members = R.list r R.varint in
  (* [View.make] validates (e.g. rejects empty membership) with
     [Invalid_argument]; on hostile bytes that must surface as the
     codec's own failure, not an unsanctioned escape. *)
  match View.make ~id ~members with
  | v -> v
  | exception Invalid_argument msg -> raise (Codec.Malformed msg)

let write_data pc w (d : 'p data) =
  write_msg_id w d.id;
  W.varint w d.view_id;
  write_annotation w d.ann;
  pc.write w d.payload

let read_data pc r =
  let id = read_msg_id r in
  let view_id = R.varint r in
  let ann = read_annotation r in
  let payload = pc.read r in
  { id; view_id; payload; ann }

let write_wire pc w = function
  | Wdata d ->
      W.uint8 w 0;
      write_data pc w d
  | Winit { view_id; leave; join } ->
      W.uint8 w 1;
      W.varint w view_id;
      W.list w (fun w p -> W.varint w p) leave;
      W.list w (fun w p -> W.varint w p) join
  | Wpred { view_id; msgs } ->
      W.uint8 w 2;
      W.varint w view_id;
      W.list w (write_data pc) msgs
  | Wstable { floors } ->
      W.uint8 w 3;
      W.list w
        (fun w (sender, sn) ->
          W.varint w sender;
          W.varint w sn)
        floors
  | Wjoin { joiner } ->
      W.uint8 w 4;
      W.varint w joiner
  | Wsync { view; floors; app } ->
      W.uint8 w 5;
      write_view w view;
      W.list w
        (fun w (sender, sn) ->
          W.varint w sender;
          W.varint w sn)
        floors;
      (match app with
      | None -> W.uint8 w 0
      | Some s ->
          W.uint8 w 1;
          W.bytes w s)

let read_wire pc r =
  match R.uint8 r with
  | 0 -> Wdata (read_data pc r)
  | 1 ->
      let view_id = R.varint r in
      let leave = R.list r R.varint in
      let join = R.list r R.varint in
      Winit { view_id; leave; join }
  | 2 ->
      let view_id = R.varint r in
      let msgs = R.list r (read_data pc) in
      Wpred { view_id; msgs }
  | 3 ->
      let floors =
        R.list r (fun r ->
            let sender = R.varint r in
            let sn = R.varint r in
            (sender, sn))
      in
      Wstable { floors }
  | 4 ->
      let joiner = R.varint r in
      Wjoin { joiner }
  | 5 ->
      let view = read_view r in
      let floors =
        R.list r (fun r ->
            let sender = R.varint r in
            let sn = R.varint r in
            (sender, sn))
      in
      let app =
        match R.uint8 r with
        | 0 -> None
        | 1 -> Some (R.bytes r)
        | n -> raise (Codec.Malformed (Printf.sprintf "sync app tag %d" n))
      in
      Wsync { view; floors; app }
  | n -> raise (Codec.Malformed (Printf.sprintf "wire tag %d" n))

let wire_to_string pc wire =
  let w = W.create () in
  write_wire pc w wire;
  W.contents w

let wire_of_string pc s = read_wire pc (R.of_string s)

let wire_size pc wire = Codec.encoded_size ~write:(write_wire pc) wire

let write_proposal pc w (p : 'p proposal) =
  write_view w p.next_view;
  W.list w (write_data pc) p.pred

let read_proposal pc r =
  let next_view = read_view r in
  let pred = R.list r (read_data pc) in
  { next_view; pred }

let proposal_size pc p = Codec.encoded_size ~write:(write_proposal pc) p
