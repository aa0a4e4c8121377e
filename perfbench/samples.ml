(* Sample storage and exact order statistics.

   Buffers live outside the OCaml heap (Bigarray), so the samples a run
   stores do not inflate the heap figures the benchmark reports about
   the system under test. *)

module A1 = Bigarray.Array1

(* Nanosecond monotonic clock, as float seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

module Floats = struct
  type t = {
    mutable data : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t;
    mutable len : int;
  }

  let create ?(capacity = 4096) () =
    { data = A1.create Bigarray.float64 Bigarray.c_layout capacity; len = 0 }

  let length t = t.len

  let push t x =
    if t.len = A1.dim t.data then begin
      let bigger = A1.create Bigarray.float64 Bigarray.c_layout (2 * t.len) in
      A1.blit t.data (A1.sub bigger 0 t.len);
      t.data <- bigger
    end;
    A1.unsafe_set t.data t.len x;
    t.len <- t.len + 1

  let get t i = A1.get t.data i

  let set t i x = A1.set t.data i x

  (* Grow to [n] slots, new slots set to [nan]. *)
  let ensure t n =
    while t.len < n do
      push t Float.nan
    done

  let sorted t =
    let a = Array.init t.len (fun i -> A1.unsafe_get t.data i) in
    Array.stable_sort Float.compare a;
    a
end

module Ints = struct
  type t = { mutable data : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t; mutable len : int }

  let create ?(capacity = 4096) () =
    { data = A1.create Bigarray.int Bigarray.c_layout capacity; len = 0 }

  let length t = t.len

  let push t x =
    if t.len = A1.dim t.data then begin
      let bigger = A1.create Bigarray.int Bigarray.c_layout (2 * t.len) in
      A1.blit t.data (A1.sub bigger 0 t.len);
      t.data <- bigger
    end;
    A1.unsafe_set t.data t.len x;
    t.len <- t.len + 1

  let get t i = A1.get t.data i
end

(* Exact nearest-rank percentile of an ascending array: the smallest
   sample with at least [p]% of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
