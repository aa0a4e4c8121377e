module Msg_id = Svs_obs.Msg_id
module Annotation = Svs_obs.Annotation
module Bitvec = Svs_obs.Bitvec
open Types

(* One sender's index: [slots.(sn - base)] is the store slot holding
   the sender's retained message [sn], or -1. A sender's messages are
   delivered in sn order, so the range from [base] up is dense but for
   the gaps purging left. *)
type sender = {
  mutable base : int; (* [min_int]: nothing indexed *)
  mutable slots : int array;
  tags : (int, int) Hashtbl.t; (* tag -> slot of the lineage's newest message *)
}

(* A growable array compacted in place: one to two words per message
   (a list cell costs three, a [Dq] entry six), and compaction
   allocates nothing. Every slot at or past [len], and every evicted
   slot, holds [filler]: the first message the array was made for. So
   these slots keep at most that one message alive, and the array
   outlives a trim that empties the store instead of regrowing from
   nothing. An evicted slot is dead because the index no longer maps
   the id it holds to it. *)
type 'p t = {
  mutable arr : 'p data array;
  mutable filler : 'p data option; (* [Some] once [arr] is not empty *)
  mutable len : int;
  mutable live : int;
  mutable peak : int;
  mutable indexed : bool; (* since the view's first annotated message *)
  senders : (int, sender) Hashtbl.t;
  mutable sender_list : sender list; (* [senders]' values, walked without a closure *)
}

let create () =
  {
    arr = [||];
    filler = None;
    len = 0;
    live = 0;
    peak = 0;
    indexed = false;
    senders = Hashtbl.create 8;
    sender_list = [];
  }

let peak t = t.peak

let clear t =
  t.arr <- [||];
  t.filler <- None;
  t.len <- 0;
  t.live <- 0;
  t.indexed <- false

let slot_in s sn =
  if s.base = min_int then -1
  else
    let i = sn - s.base in
    if i < 0 || i >= Array.length s.slots then -1 else s.slots.(i)

let slot_of t ~sender ~sn =
  match Hashtbl.find t.senders sender with s -> slot_in s sn | exception Not_found -> -1

(* Dead slots exist only once the index is on. *)
let live_at t i (d : _ data) =
  (not t.indexed) || slot_of t ~sender:d.id.Msg_id.sender ~sn:d.id.Msg_id.sn = i

let sender t id =
  match Hashtbl.find t.senders id with
  | s -> s
  | exception Not_found ->
      let s = { base = min_int; slots = [||]; tags = Hashtbl.create 4 } in
      Hashtbl.add t.senders id s;
      t.sender_list <- s :: t.sender_list;
      s

let grow_slots s ~below ~above =
  let n = Array.length s.slots in
  let slots = Array.make (Stdlib.max 16 (Stdlib.max (below + n + above) (2 * n))) (-1) in
  Array.blit s.slots 0 slots below n;
  s.slots <- slots

let index t slot (d : _ data) =
  let s = sender t d.id.Msg_id.sender in
  let sn = d.id.Msg_id.sn in
  if s.base = min_int then s.base <- sn
  else if sn < s.base then begin
    grow_slots s ~below:(s.base - sn) ~above:0;
    s.base <- sn
  end;
  let i = sn - s.base in
  if i >= Array.length s.slots then grow_slots s ~below:0 ~above:(i + 1 - Array.length s.slots);
  s.slots.(i) <- slot;
  match d.ann with
  | Annotation.Tag g -> Hashtbl.replace s.tags g slot
  | Annotation.Unrelated | Annotation.Enum _ | Annotation.Kenum _ -> ()

let rec reset_senders = function
  | [] -> ()
  | s :: rest ->
      Array.fill s.slots 0 (Array.length s.slots) (-1);
      s.base <- min_int;
      Hashtbl.clear s.tags;
      reset_senders rest

let rebuild t =
  reset_senders t.sender_list;
  for i = 0 to t.len - 1 do
    index t i t.arr.(i)
  done

(* Keeps the live elements [d] with [keep x d], in order, and drops
   the dead slots; returns how many live elements were dropped. *)
let filter_in_place keep x t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let d = t.arr.(i) in
    if live_at t i d && keep x d then begin
      t.arr.(!j) <- d;
      incr j
    end
  done;
  let removed = t.live - !j in
  (match t.filler with Some f -> Array.fill t.arr !j (t.len - !j) f | None -> ());
  t.len <- !j;
  t.live <- !j;
  if t.indexed then rebuild t;
  removed

let keep_all () _ = true

let evict_at t slot on_evict x =
  if slot >= 0 then begin
    let v = t.arr.(slot) in
    let s = Hashtbl.find t.senders v.id.Msg_id.sender in
    s.slots.(v.id.Msg_id.sn - s.base) <- -1;
    (match t.filler with Some f -> t.arr.(slot) <- f | None -> ());
    t.live <- t.live - 1;
    on_evict x v
  end

(* The forward probes of {!Svs_obs.Purge_index.plan}, with the
   delivered message as the newer one, each a point lookup. *)
let rec evict_enum t (id : Msg_id.t) preds on_evict x =
  match preds with
  | [] -> ()
  | (p : Msg_id.t) :: rest ->
      if
        (not (Msg_id.equal p id))
        && (p.Msg_id.sender <> id.Msg_id.sender || p.Msg_id.sn < id.Msg_id.sn)
      then evict_at t (slot_of t ~sender:p.Msg_id.sender ~sn:p.Msg_id.sn) on_evict x;
      evict_enum t id rest on_evict x

let rec evict_kenum t s bm ~sn d lim on_evict x =
  match Bitvec.next_set bm d with
  | 0 -> ()
  | d when d > lim -> ()
  | d ->
      evict_at t (slot_in s (sn - d)) on_evict x;
      evict_kenum t s bm ~sn (d + 1) lim on_evict x

let evict_covered t (d : _ data) on_evict x =
  let id = d.id in
  match d.ann with
  | Annotation.Unrelated -> ()
  | Annotation.Enum preds -> evict_enum t id preds on_evict x
  | Annotation.Tag g -> (
      match Hashtbl.find t.senders id.Msg_id.sender with
      | exception Not_found -> ()
      | s -> (
          match Hashtbl.find s.tags g with
          | exception Not_found -> ()
          | slot ->
              let v = t.arr.(slot) in
              if
                slot_in s v.id.Msg_id.sn = slot
                && v.id.Msg_id.sender = id.Msg_id.sender
                && v.id.Msg_id.sn < id.Msg_id.sn
                && match v.ann with Annotation.Tag g' -> g' = g | _ -> false
              then evict_at t slot on_evict x))
  | Annotation.Kenum bm -> (
      match Hashtbl.find t.senders id.Msg_id.sender with
      | exception Not_found -> ()
      | s ->
          if s.base <> min_int then
            evict_kenum t s bm ~sn:id.Msg_id.sn 1 (id.Msg_id.sn - s.base) on_evict x)

let append t x =
  if t.len = Array.length t.arr then begin
    let f =
      match t.filler with
      | Some f -> f
      | None ->
          t.filler <- Some x;
          x
    in
    let arr = Array.make (Stdlib.max 16 (2 * t.len)) f in
    Array.blit t.arr 0 arr 0 t.len;
    t.arr <- arr
  end;
  t.arr.(t.len) <- x;
  t.len <- t.len + 1

let add t (d : _ data) =
  append t d;
  if t.indexed then index t (t.len - 1) d;
  t.live <- t.live + 1;
  if t.live > t.peak then t.peak <- t.live

let push t (d : _ data) on_evict x =
  (match d.ann with
  | Annotation.Unrelated -> ()
  | Annotation.Tag _ | Annotation.Enum _ | Annotation.Kenum _ ->
      if not t.indexed then begin
        t.indexed <- true;
        rebuild t
      end);
  if t.indexed then evict_covered t d on_evict x;
  add t d;
  (* Dead slots past half the store: compact, amortized O(1) per
     eviction, so the store stays bounded without stability trims. *)
  let dead = t.len - t.live in
  if dead > 64 && dead > t.live then ignore (filter_in_place keep_all () t : int)

let fold_right f t acc =
  let acc = ref acc in
  for i = t.len - 1 downto 0 do
    let x = t.arr.(i) in
    if live_at t i x then acc := f x !acc
  done;
  !acc
