exception Truncated

exception Malformed of string

module Slice = struct
  type t = { buf : Bytes.t; off : int; len : int }

  let make buf ~off ~len =
    if off < 0 || len < 0 || off > Bytes.length buf - len then
      invalid_arg "Codec.Slice.make: out of bounds";
    { buf; off; len }

  (* A reader never writes through the slice, so viewing an immutable
     string as bytes is sound. *)
  let of_string s = { buf = Bytes.unsafe_of_string s; off = 0; len = String.length s }

  let length t = t.len

  let sub t ~off ~len =
    if off < 0 || len < 0 || off > t.len - len then
      invalid_arg "Codec.Slice.sub: out of bounds";
    { buf = t.buf; off = t.off + off; len }

  let to_string t = Bytes.sub_string t.buf t.off t.len

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Codec.Slice.get: out of bounds";
    Bytes.get t.buf (t.off + i)

  let blit t dst dst_off =
    if dst_off < 0 || dst_off > Bytes.length dst - t.len then
      invalid_arg "Codec.Slice.blit: out of bounds";
    Bytes.blit t.buf t.off dst dst_off t.len
end

module Writer = struct
  type t = Buffer.t

  let create ?(initial_capacity = 64) () = Buffer.create initial_capacity

  let length = Buffer.length

  let contents = Buffer.contents

  let clear = Buffer.clear

  let blit_into t dst dst_off =
    if dst_off < 0 || dst_off > Bytes.length dst - Buffer.length t then
      invalid_arg "Codec.Writer.blit_into: out of bounds";
    Buffer.blit t 0 dst dst_off (Buffer.length t)

  let add_to_buffer t dst = Buffer.add_buffer dst t

  let uint8 t v =
    if v < 0 || v > 0xFF then invalid_arg "Codec.Writer.uint8: out of range";
    Buffer.add_char t (Char.chr v)

  (* LEB128 groups of a raw 63-bit pattern, with logical shifts: the
     zigzag image of extreme ints sets the top bit, which looks
     negative. A top-level function taking the buffer as an argument,
     because a local recursive loop closing over it would allocate a
     closure on every call (there is no flambda to lift it), and these
     run several times per frame. *)
  let rec groups t u =
    if u land lnot 0x7F = 0 then Buffer.add_char t (Char.chr u)
    else begin
      Buffer.add_char t (Char.chr (0x80 lor (u land 0x7F)));
      groups t (u lsr 7)
    end

  let varint t v =
    if v < 0 then invalid_arg "Codec.Writer.varint: negative value";
    groups t v

  let zigzag t v = groups t ((v lsl 1) lxor (v asr (Sys.int_size - 1)))

  let float64 t v =
    let bits = Int64.bits_of_float v in
    for i = 0 to 7 do
      Buffer.add_char t
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
    done

  let bool t v = uint8 t (if v then 1 else 0)

  let bytes t s =
    varint t (String.length s);
    Buffer.add_string t s

  let raw t s = Buffer.add_string t s

  let rec each t f = function
    | [] -> ()
    | x :: rest ->
        f t x;
        each t f rest

  let list t f xs =
    varint t (List.length xs);
    each t f xs

  let option t f = function
    | None -> bool t false
    | Some x ->
        bool t true;
        f t x
end

module Reader = struct
  (* The reader walks [buf] from [pos] (exclusive) to [limit]; the
     window is a borrowed view of the caller's bytes — nothing is
     copied until a field accessor ([take], [bytes]) materializes a
     value, and [slice] does not even then. *)
  type t = { buf : Bytes.t; mutable pos : int; limit : int }

  let of_slice (s : Slice.t) = { buf = s.Slice.buf; pos = s.Slice.off; limit = s.Slice.off + s.Slice.len }

  let of_string data = of_slice (Slice.of_string data)

  let of_bytes ?(off = 0) ?len data =
    let len = match len with Some l -> l | None -> Bytes.length data - off in
    of_slice (Slice.make data ~off ~len)

  let remaining t = t.limit - t.pos

  let eof t = remaining t = 0

  let take t n =
    if n < 0 || remaining t < n then raise Truncated;
    let s = Bytes.sub_string t.buf t.pos n in
    t.pos <- t.pos + n;
    s

  let slice t n =
    if n < 0 || remaining t < n then raise Truncated;
    let s = { Slice.buf = t.buf; off = t.pos; len = n } in
    t.pos <- t.pos + n;
    s

  let uint8 t =
    if remaining t < 1 then raise Truncated;
    let c = Char.code (Bytes.unsafe_get t.buf t.pos) in
    t.pos <- t.pos + 1;
    c

  let rec varint_from t shift acc =
    if shift > Sys.int_size - 1 then raise (Malformed "varint too long");
    let b = uint8 t in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else varint_from t (shift + 7) acc

  let varint t = varint_from t 0 0

  let zigzag t =
    let v = varint t in
    (v lsr 1) lxor (-(v land 1))

  let float64 t =
    if remaining t < 8 then raise Truncated;
    let bits = ref 0L in
    for i = 7 downto 0 do
      bits :=
        Int64.logor (Int64.shift_left !bits 8)
          (Int64.of_int (Char.code (Bytes.unsafe_get t.buf (t.pos + i))))
    done;
    t.pos <- t.pos + 8;
    Int64.float_of_bits !bits

  let bool t =
    match uint8 t with
    | 0 -> false
    | 1 -> true
    | n -> raise (Malformed (Printf.sprintf "bool byte %d" n))

  let bytes t =
    let n = varint t in
    take t n

  let raw t n = take t n

  (* Elements must be decoded left to right. *)
  let rec read_n t f i acc = if i = 0 then List.rev acc else read_n t f (i - 1) (f t :: acc)

  let list t f =
    let n = varint t in
    if n < 0 then raise (Malformed "negative list length");
    read_n t f n []

  let option t f = if bool t then Some (f t) else None
end

let round_trip ~write ~read v =
  let w = Writer.create () in
  write w v;
  read (Reader.of_string (Writer.contents w))

let encoded_size ~write v =
  let w = Writer.create () in
  write w v;
  Writer.length w
