type 'a t = {
  leq : 'a -> 'a -> bool;
  mutable data : 'a array;
  mutable size : int;
}

let create ~leq () = { leq; data = [||]; size = 0 }

let length h = h.size

let is_empty h = h.size = 0

let grow h x =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap x in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.leq h.data.(i) h.data.(parent) && not (h.leq h.data.(parent) h.data.(i)) then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < h.size && not (h.leq h.data.(!smallest) h.data.(left)) then smallest := left;
  if right < h.size && not (h.leq h.data.(!smallest) h.data.(right)) then smallest := right;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let add h x =
  grow h x;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let min_exn h = if h.size = 0 then invalid_arg "Heap.min_exn: empty heap" else h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some top
  end

let pop_exn h =
  match pop h with
  | Some x -> x
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let clear h =
  h.data <- [||];
  h.size <- 0

let iter f h =
  for i = 0 to h.size - 1 do
    f h.data.(i)
  done

let fold f acc h =
  let acc = ref acc in
  for i = 0 to h.size - 1 do
    acc := f !acc h.data.(i)
  done;
  !acc

let to_sorted_list h =
  let copy = { leq = h.leq; data = Array.sub h.data 0 h.size; size = h.size } in
  let rec drain acc =
    match pop copy with
    | None -> List.rev acc
    | Some x -> drain (x :: acc)
  in
  drain []
