(* Ring buffer of boxed nodes. Boxing buys stable handles: an index
   (Purge_index) can retain a node and tombstone it in O(1) without
   shifting the ring, and compactions move node pointers, never nodes,
   so handles survive growth and rebuilds. Free slots hold the queue's
   own [empty] node rather than an option, so a push allocates only
   its node and a pop hands back the node's value as it is. *)

type 'a node = {
  mutable v : 'a option; (* None once removed (tombstone) *)
  seq : int;
}

type 'a handle = 'a node

type 'a t = {
  empty : 'a node; (* fills every free slot; never pushed *)
  mutable data : 'a node array;
  mutable head : int; (* index of front slot *)
  mutable slots : int; (* occupied slots: live nodes + tombstones *)
  mutable live : int;
  (* Queue order is ascending [seq]: front pushes count down from -1,
     back pushes count up from 0, so a front seq is always below every
     back seq and both sections stay sorted. *)
  mutable front_seq : int;
  mutable back_seq : int;
}

let create () =
  let empty = { v = None; seq = min_int } in
  { empty; data = Array.make 16 empty; head = 0; slots = 0; live = 0; front_seq = -1; back_seq = 0 }

let length t = t.live

let is_empty t = t.live = 0

let capacity t = Array.length t.data

let index t i = (t.head + i) mod capacity t

let handle_seq (n : 'a handle) = n.seq

let handle_get (n : 'a handle) = n.v

(* Rebuild the ring into a fresh array of [ncap] slots, dropping every
   tombstone. Node records are reused, so handles stay valid. *)
let rebuild t ncap =
  let ndata = Array.make ncap t.empty in
  let j = ref 0 in
  for i = 0 to t.slots - 1 do
    let n = t.data.(index t i) in
    if n.v <> None then begin
      ndata.(!j) <- n;
      incr j
    end
  done;
  t.data <- ndata;
  t.head <- 0;
  t.slots <- !j

let grow t =
  if t.slots = capacity t then
    (* Full of live nodes: double. Half-dead: compacting in place frees
       enough slots, and the >= slots/2 tombstones paid for the pass. *)
    if 2 * t.live > capacity t then rebuild t (2 * capacity t) else rebuild t (capacity t)

let push_back_h t x =
  grow t;
  let n = { v = Some x; seq = t.back_seq } in
  t.back_seq <- t.back_seq + 1;
  t.data.(index t t.slots) <- n;
  t.slots <- t.slots + 1;
  t.live <- t.live + 1;
  n

let push_back t x = ignore (push_back_h t x : 'a handle)

let push_front_h t x =
  grow t;
  let n = { v = Some x; seq = t.front_seq } in
  t.front_seq <- t.front_seq - 1;
  t.head <- (t.head - 1 + capacity t) mod capacity t;
  t.data.(t.head) <- n;
  t.slots <- t.slots + 1;
  t.live <- t.live + 1;
  n

let push_front t x = ignore (push_front_h t x : 'a handle)

let remove t (n : 'a handle) =
  match n.v with
  | None -> false
  | Some _ ->
      n.v <- None;
      t.live <- t.live - 1;
      (* Keep tombstones a minority so traversals stay O(live). *)
      if t.slots >= 32 && t.slots > 2 * t.live then rebuild t (capacity t);
      true

let rec pop_front t =
  if t.slots = 0 then None
  else begin
    let n = t.data.(t.head) in
    t.data.(t.head) <- t.empty;
    t.head <- index t 1;
    t.slots <- t.slots - 1;
    match n.v with
    | Some _ as x ->
        n.v <- None;
        t.live <- t.live - 1;
        x
    | None -> pop_front t
  end

let rec peek_front t =
  if t.slots = 0 then None
  else
    match t.data.(t.head).v with
    | Some _ as x -> x
    | None ->
        (* Shed the dead front slot; observably a no-op. *)
        t.data.(t.head) <- t.empty;
        t.head <- index t 1;
        t.slots <- t.slots - 1;
        peek_front t

let get t i =
  if i < 0 || i >= t.live then invalid_arg "Dq.get: index out of bounds";
  let rec scan slot remaining =
    match t.data.(index t slot).v with
    | Some x -> if remaining = 0 then x else scan (slot + 1) (remaining - 1)
    | None -> scan (slot + 1) remaining
  in
  scan 0 i

let iter f t =
  for i = 0 to t.slots - 1 do
    match t.data.(index t i).v with Some x -> f x | None -> ()
  done

let exists p t =
  let rec scan i =
    i < t.slots
    &&
    match t.data.(index t i).v with Some x -> p x || scan (i + 1) | None -> scan (i + 1)
  in
  scan 0

let filter_in_place p t =
  let removed = ref 0 in
  for i = 0 to t.slots - 1 do
    let n = t.data.(index t i) in
    match n.v with
    | Some x ->
        if not (p x) then begin
          n.v <- None;
          incr removed
        end
    | None -> ()
  done;
  t.live <- t.live - !removed;
  (* The pass was O(slots) anyway: compact all tombstones now. *)
  rebuild t (capacity t);
  !removed

let to_list t =
  let acc = ref [] in
  for i = t.slots - 1 downto 0 do
    match t.data.(index t i).v with Some x -> acc := x :: !acc | None -> ()
  done;
  !acc

let clear t =
  (* Detach every node first so stale handles read as removed, then
     reuse the backing array — view changes must not throw away warmed
     capacity. *)
  for i = 0 to t.slots - 1 do
    (t.data.(index t i)).v <- None
  done;
  Array.fill t.data 0 (Array.length t.data) t.empty;
  t.head <- 0;
  t.slots <- 0;
  t.live <- 0
