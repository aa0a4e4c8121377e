(* 62 usable bits per word keeps every shift well inside OCaml's 63-bit
   native int, so [lsl]/[lsr] never touch the sign bit. *)
let word_bits = 62

let word_mask = (1 lsl word_bits) - 1

type t = { width : int; words : int array }

let create ~k =
  if k < 0 then invalid_arg "Bitvec.create: negative k";
  { width = k; words = Array.make (((k + word_bits - 1) / word_bits) + 1) 0 }

let k t = t.width

let copy t = { width = t.width; words = Array.copy t.words }

(* Distance d (1-based) lives at bit index d-1. *)
let set t d =
  if d < 1 then invalid_arg "Bitvec.set: distance must be >= 1";
  if d <= t.width then begin
    let i = d - 1 in
    t.words.(i / word_bits) <-
      t.words.(i / word_bits) lor (1 lsl (i mod word_bits))
  end

let get t d =
  if d < 1 || d > t.width then false
  else
    let i = d - 1 in
    t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* Clear any bits at indices >= width (distances > k). *)
let truncate t =
  let nwords = Array.length t.words in
  let full = t.width / word_bits in
  let rem = t.width mod word_bits in
  if full < nwords then begin
    if rem > 0 then t.words.(full) <- t.words.(full) land ((1 lsl rem) - 1)
    else t.words.(full) <- 0;
    for i = full + 1 to nwords - 1 do
      t.words.(i) <- 0
    done
  end

let or_shifted ~into src ~shift =
  if shift < 0 then invalid_arg "Bitvec.or_shifted: negative shift";
  let woff = shift / word_bits in
  let boff = shift mod word_bits in
  let n_into = Array.length into.words in
  for wi = Array.length src.words - 1 downto 0 do
    let w = src.words.(wi) in
    if w <> 0 then begin
      let lo = wi + woff in
      if lo < n_into then
        into.words.(lo) <- into.words.(lo) lor ((w lsl boff) land word_mask);
      if boff > 0 && lo + 1 < n_into then
        into.words.(lo + 1) <- into.words.(lo + 1) lor (w lsr (word_bits - boff))
    end
  done;
  truncate into

let union ~into src = or_shifted ~into src ~shift:0

let distances t =
  let acc = ref [] in
  for d = t.width downto 1 do
    if get t d then acc := d :: !acc
  done;
  !acc

(* Lowest set bit of a nonzero word, as a bit index. *)
let rec lowest w n = if w land 1 = 1 then n else lowest (w lsr 1) (n + 1)

let rec next_from t i =
  if i >= t.width then 0
  else
    let w = t.words.(i / word_bits) lsr (i mod word_bits) in
    if w = 0 then next_from t ((i / word_bits + 1) * word_bits)
    else
      let j = i + lowest w 0 in
      if j >= t.width then 0 else j + 1

let next_set t d = next_from t (Stdlib.max d 1 - 1)

let cardinal t = List.length (distances t)

let equal a b =
  a.width = b.width
  &&
  let max_words = Stdlib.max (Array.length a.words) (Array.length b.words) in
  let word arr i = if i < Array.length arr then arr.(i) else 0 in
  let rec check i =
    i >= max_words || (word a.words i = word b.words i && check (i + 1))
  in
  check 0

let to_bytes t =
  let nbytes = (t.width + 7) / 8 in
  String.init nbytes (fun byte ->
      let v = ref 0 in
      for bit = 0 to 7 do
        let d = (byte * 8) + bit + 1 in
        if get t d then v := !v lor (1 lsl bit)
      done;
      Char.chr !v)

let of_bytes ~k s =
  let nbytes = (k + 7) / 8 in
  if String.length s <> nbytes then invalid_arg "Bitvec.of_bytes: wrong length";
  let t = create ~k in
  String.iteri
    (fun byte c ->
      let v = Char.code c in
      for bit = 0 to 7 do
        let d = (byte * 8) + bit + 1 in
        if v land (1 lsl bit) <> 0 && d <= k then set t d
      done)
    s;
  t

let pp ppf t =
  Format.fprintf ppf "{k=%d;" t.width;
  List.iter (fun d -> Format.fprintf ppf " %d" d) (distances t);
  Format.fprintf ppf "}"
