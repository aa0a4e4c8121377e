(* Tests for the binary codec and the protocol wire encoding. *)

module Codec = Svs_codec.Codec
module W = Codec.Writer
module R = Codec.Reader
module Wire_codec = Svs_core.Wire_codec
module Types = Svs_core.Types
module View = Svs_core.View
module Msg_id = Svs_obs.Msg_id
module Annotation = Svs_obs.Annotation
module Bitvec = Svs_obs.Bitvec

(* --- primitives --- *)

let test_varint_round_trip () =
  List.iter
    (fun v ->
      Alcotest.(check int) (Printf.sprintf "varint %d" v) v
        (Codec.round_trip ~write:W.varint ~read:R.varint v))
    [ 0; 1; 127; 128; 255; 16384; 1 lsl 40; max_int ]

let test_zigzag_round_trip () =
  List.iter
    (fun v ->
      Alcotest.(check int) (Printf.sprintf "zigzag %d" v) v
        (Codec.round_trip ~write:W.zigzag ~read:R.zigzag v))
    [ 0; -1; 1; -64; 64; min_int + 1; max_int; min_int ]

let test_varint_compact () =
  Alcotest.(check int) "small value is one byte" 1 (Codec.encoded_size ~write:W.varint 42);
  Alcotest.(check int) "two bytes" 2 (Codec.encoded_size ~write:W.varint 300)

let test_float_round_trip () =
  List.iter
    (fun v ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "float %g" v) v
        (Codec.round_trip ~write:W.float64 ~read:R.float64 v))
    [ 0.0; -1.5; 3.141592653589793; 1e300; -1e-300; Float.max_float ]

let test_bytes_and_list () =
  let v = [ "a"; ""; "hello world"; String.make 1000 'x' ] in
  Alcotest.(check (list string)) "list of bytes" v
    (Codec.round_trip
       ~write:(fun w -> W.list w W.bytes)
       ~read:(fun r -> R.list r R.bytes)
       v)

let test_option () =
  let rt v =
    Codec.round_trip
      ~write:(fun w -> W.option w W.varint)
      ~read:(fun r -> R.option r R.varint)
      v
  in
  Alcotest.(check (option int)) "some" (Some 9) (rt (Some 9));
  Alcotest.(check (option int)) "none" None (rt None)

let test_truncated () =
  Alcotest.check_raises "short input" Codec.Truncated (fun () ->
      ignore (R.float64 (R.of_string "abc")))

let test_malformed_bool () =
  Alcotest.check_raises "bad bool" (Codec.Malformed "bool byte 7") (fun () ->
      ignore (R.bool (R.of_string "\007")))

let test_reader_position () =
  let w = W.create () in
  W.varint w 1;
  W.varint w 2;
  let r = R.of_string (W.contents w) in
  Alcotest.(check int) "first" 1 (R.varint r);
  Alcotest.(check bool) "not eof" false (R.eof r);
  Alcotest.(check int) "second" 2 (R.varint r);
  Alcotest.(check bool) "eof" true (R.eof r)

let varint_property =
  QCheck.Test.make ~name:"varint round-trips any non-negative int" ~count:500
    QCheck.(map abs int)
    (fun v ->
      let v = abs v in
      Codec.round_trip ~write:W.varint ~read:R.varint v = v)

let zigzag_property =
  QCheck.Test.make ~name:"zigzag round-trips any int" ~count:500 QCheck.int (fun v ->
      Codec.round_trip ~write:W.zigzag ~read:R.zigzag v = v)

let test_payload_codecs () =
  let rt pc v = Codec.round_trip ~write:pc.Wire_codec.write ~read:pc.Wire_codec.read v in
  Alcotest.(check string) "string payload" "hello" (rt Wire_codec.string_codec "hello");
  Alcotest.(check int) "int payload" (-42) (rt Wire_codec.int_codec (-42));
  Alcotest.(check (pair int string)) "pair payload" (7, "x")
    (rt (Wire_codec.pair_codec Wire_codec.int_codec Wire_codec.string_codec) (7, "x"));
  Alcotest.(check unit) "unit payload" () (rt Wire_codec.unit_codec ())

(* --- slice reader (zero-copy hot path) --- *)

(* A tagged value stream exercising every primitive through the
   slice-backed reader. *)
type item = I of int | Z of int | F of float | B of bool | S of string

let write_item w = function
  | I v ->
      W.uint8 w 0;
      W.varint w v
  | Z v ->
      W.uint8 w 1;
      W.zigzag w v
  | F v ->
      W.uint8 w 2;
      W.float64 w v
  | B v ->
      W.uint8 w 3;
      W.bool w v
  | S v ->
      W.uint8 w 4;
      W.bytes w v

let read_item r =
  match R.uint8 r with
  | 0 -> I (R.varint r)
  | 1 -> Z (R.zigzag r)
  | 2 -> F (R.float64 r)
  | 3 -> B (R.bool r)
  | 4 -> S (R.bytes r)
  | n -> raise (Codec.Malformed (Printf.sprintf "item tag %d" n))

let item_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> I (abs v)) int;
        map (fun v -> Z v) int;
        map (fun v -> F v) (float_bound_inclusive 1e12);
        map (fun v -> B v) bool;
        map (fun s -> S s) (string_size (int_range 0 40));
      ])

(* A value stream plus junk margins: the encoding will live at offset
   [pre] of a shared buffer padded with continuation-byte junk (0xff),
   so any out-of-window read changes the result. *)
let items_arb =
  QCheck.make
    ~print:(fun (items, (pre, post)) ->
      Printf.sprintf "%d items, pre=%d post=%d" (List.length items) pre post)
    QCheck.Gen.(
      pair (list_size (int_range 0 12) item_gen) (pair (int_range 0 64) (int_range 0 64)))

let encode_items items =
  let w = W.create () in
  List.iter (write_item w) items;
  w

let slice_decode_property =
  QCheck.Test.make ~name:"slice reader decodes at arbitrary offsets amid junk" ~count:500
    items_arb
    (fun (items, (pre, post)) ->
      let w = encode_items items in
      let n = W.length w in
      let buf = Bytes.make (pre + n + post) '\xff' in
      W.blit_into w buf pre;
      let r = R.of_slice (Codec.Slice.make buf ~off:pre ~len:n) in
      let items' = List.map (fun _ -> read_item r) items in
      R.eof r && List.for_all2 (fun a b -> compare a b = 0) items items')

(* The full valid encoding is present in the buffer, but the slice
   window stops [k] bytes in — every cut point must raise Truncated,
   never decode by reading past the window. *)
let slice_truncation_property =
  QCheck.Test.make ~name:"truncation at every boundary raises Truncated" ~count:100
    items_arb
    (fun (items, (pre, _)) ->
      let w = encode_items items in
      let n = W.length w in
      let buf = Bytes.make (pre + n) '\xff' in
      W.blit_into w buf pre;
      let ok = ref true in
      for k = 0 to n - 1 do
        let r = R.of_slice (Codec.Slice.make buf ~off:pre ~len:k) in
        match List.map (fun _ -> read_item r) items with
        | _ -> ok := false
        | exception Codec.Truncated -> ()
      done;
      !ok)

let test_slice_respects_window () =
  (* Bytes exist past the window; the reader must not see them. *)
  let buf = Bytes.of_string "aaaaHELLOzzzz" in
  let s = Codec.Slice.make buf ~off:4 ~len:5 in
  let r = R.of_slice s in
  Alcotest.(check string) "raw within window" "HEL" (R.raw r 3);
  Alcotest.check_raises "sub-slice past window" Codec.Truncated (fun () ->
      ignore (R.slice r 3 : Codec.Slice.t));
  Alcotest.(check string) "rest of window" "LO" (Codec.Slice.to_string (R.slice r 2));
  Alcotest.(check bool) "eof" true (R.eof r)

let test_slice_bounds () =
  let s = Codec.Slice.of_string "hello world" in
  let sub = Codec.Slice.sub s ~off:6 ~len:5 in
  Alcotest.(check string) "sub" "world" (Codec.Slice.to_string sub);
  Alcotest.(check char) "get" 'w' (Codec.Slice.get sub 0);
  let oob f = match f () with () -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "sub out of bounds" true
    (oob (fun () -> ignore (Codec.Slice.sub s ~off:8 ~len:4 : Codec.Slice.t)));
  Alcotest.(check bool) "get out of bounds" true
    (oob (fun () -> ignore (Codec.Slice.get sub 5 : char)));
  Alcotest.(check bool) "make overrun" true
    (oob (fun () -> ignore (Codec.Slice.make (Bytes.create 4) ~off:2 ~len:3 : Codec.Slice.t)))

(* --- bitvec bytes --- *)

let bitvec_bytes_property =
  QCheck.Test.make ~name:"bitvec to_bytes/of_bytes round-trip" ~count:200
    QCheck.(pair (int_range 1 200) (list (int_range 1 200)))
    (fun (k, bits) ->
      let b = Bitvec.create ~k in
      List.iter (fun d -> if d <= k then Bitvec.set b d) bits;
      Bitvec.equal b (Bitvec.of_bytes ~k (Bitvec.to_bytes b)))

let test_bitvec_bytes_size () =
  let b = Bitvec.create ~k:30 in
  Alcotest.(check int) "ceil(30/8) = 4 bytes" 4 (String.length (Bitvec.to_bytes b))

(* --- wire messages --- *)

let mid sender sn = Msg_id.make ~sender ~sn

let sample_data payload =
  let bm = Bitvec.create ~k:30 in
  Bitvec.set bm 1;
  Bitvec.set bm 17;
  {
    Types.id = mid 2 77;
    view_id = 3;
    payload;
    ann = Annotation.Kenum bm;
  }

let wire_testable =
  Alcotest.testable
    (fun ppf w -> Types.pp_wire Format.pp_print_int ppf w)
    (fun a b -> a = b)

let rt_wire w =
  Wire_codec.wire_of_string Wire_codec.int_codec
    (Wire_codec.wire_to_string Wire_codec.int_codec w)

let test_wire_data_round_trip () =
  let w = Types.Wdata (sample_data 42) in
  Alcotest.(check wire_testable) "data round-trip" w (rt_wire w)

let test_wire_init_round_trip () =
  let w = Types.Winit { view_id = 9; leave = [ 1; 4 ]; join = [] } in
  Alcotest.(check wire_testable) "init round-trip" w (rt_wire w);
  let w = Types.Winit { view_id = 2; leave = []; join = [ 3; 6 ] } in
  Alcotest.(check wire_testable) "init with joins" w (rt_wire w)

let test_wire_join_sync_round_trip () =
  let w = Types.Wjoin { joiner = 5 } in
  Alcotest.(check wire_testable) "join round-trip" w (rt_wire w);
  let view = View.make ~id:4 ~members:[ 0; 2; 5 ] in
  let w =
    Types.Wsync { view; floors = [ (0, 12); (2, 7) ]; app = Some "snapshot" }
  in
  Alcotest.(check wire_testable) "sync round-trip" w (rt_wire w);
  let w = Types.Wsync { view; floors = []; app = None } in
  Alcotest.(check wire_testable) "sync without app state" w (rt_wire w)

let test_wire_pred_round_trip () =
  let w =
    Types.Wpred { view_id = 2; msgs = [ sample_data 1; sample_data 2; sample_data 3 ] }
  in
  Alcotest.(check wire_testable) "pred round-trip" w (rt_wire w)

let test_wire_stable_round_trip () =
  let w = Types.Wstable { floors = [ (0, 15); (1, 3); (2, 999) ] } in
  Alcotest.(check wire_testable) "stable round-trip" w (rt_wire w)

let test_annotation_round_trips () =
  let rt a =
    Codec.round_trip ~write:Wire_codec.write_annotation ~read:Wire_codec.read_annotation a
  in
  List.iter
    (fun a -> Alcotest.(check bool) "annotation round-trip" true (rt a = a))
    [
      Annotation.Unrelated;
      Annotation.Tag 7;
      Annotation.Tag (-3);
      Annotation.Enum [ mid 0 1; mid 3 9 ];
    ];
  (* Kenum: structural equality of bitmaps. *)
  let bm = Bitvec.create ~k:12 in
  Bitvec.set bm 5;
  match rt (Annotation.Kenum bm) with
  | Annotation.Kenum bm' -> Alcotest.(check bool) "kenum bitmap" true (Bitvec.equal bm bm')
  | _ -> Alcotest.fail "kenum tag lost"

let test_view_round_trip () =
  let v = View.make ~id:4 ~members:[ 0; 2; 5 ] in
  let v' = Codec.round_trip ~write:Wire_codec.write_view ~read:Wire_codec.read_view v in
  Alcotest.(check bool) "view round-trip" true (View.equal v v')

let test_proposal_round_trip () =
  let p =
    {
      Types.next_view = View.make ~id:7 ~members:[ 0; 1 ];
      pred = [ sample_data 5; sample_data 6 ];
    }
  in
  let p' =
    Codec.round_trip
      ~write:(Wire_codec.write_proposal Wire_codec.int_codec)
      ~read:(Wire_codec.read_proposal Wire_codec.int_codec)
      p
  in
  Alcotest.(check bool) "proposal round-trip" true (p = p')

let test_wire_sizes_sane () =
  (* A data message with a k=30 bitmap should be compact: a few bytes
     of ids + 4 bytes of bitmap + payload. *)
  let size = Wire_codec.wire_size Wire_codec.int_codec (Types.Wdata (sample_data 1)) in
  Alcotest.(check bool) (Printf.sprintf "data message %dB < 24B" size) true (size < 24);
  let pred_size =
    Wire_codec.wire_size Wire_codec.int_codec
      (Types.Wpred { view_id = 1; msgs = List.init 100 sample_data })
  in
  Alcotest.(check bool) "pred scales with contents" true (pred_size > 100 * 10)

let wire_round_trip_property =
  QCheck.Test.make ~name:"arbitrary data messages round-trip" ~count:300
    QCheck.(quad small_nat small_nat int (int_range 1 100))
    (fun (sender, sn, payload, k) ->
      let bm = Bitvec.create ~k in
      Bitvec.set bm (1 + (abs payload mod k));
      let w =
        Types.Wdata
          {
            Types.id = mid sender sn;
            view_id = abs payload mod 5;
            payload;
            ann = Annotation.Kenum bm;
          }
      in
      rt_wire w = w)

(* --- allocation budgets ---

   Words allocated on the minor heap per call, averaged over [alloc_n]
   calls, so one-off growth (a writer's buffer) averages out and any
   per-call allocation shows as at least one word. *)

let alloc_n = 20_000

let unrelated_int_wire =
  Types.Wdata
    { Types.id = mid 1 123_456; view_id = 3; payload = 987_654; ann = Annotation.Unrelated }

let test_encode_allocates_nothing () =
  let w = W.create ~initial_capacity:256 () in
  let w0 = Gc.minor_words () in
  for _ = 1 to alloc_n do
    W.clear w;
    Wire_codec.write_wire Wire_codec.int_codec w unrelated_int_wire
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int alloc_n in
  Alcotest.(check (float 0.0)) "write_wire words per frame" 0.0 per_call

(* Decoding builds exactly the values it returns: the [Wdata] block (2
   words), the data record (5) and its [Msg_id] (3). *)
let test_decode_allocates_only_the_message () =
  let s = Wire_codec.wire_to_string Wire_codec.int_codec unrelated_int_wire in
  let readers = Array.init alloc_n (fun _ -> R.of_string s) in
  let w0 = Gc.minor_words () in
  for i = 0 to alloc_n - 1 do
    ignore (Sys.opaque_identity (Wire_codec.read_wire Wire_codec.int_codec readers.(i)))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int alloc_n in
  Alcotest.(check bool)
    (Printf.sprintf "read_wire allocates %.1f words per frame (budget 10)" per_call)
    true (per_call <= 10.0)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "svs_codec"
    [
      ( "primitives",
        [
          Alcotest.test_case "varint" `Quick test_varint_round_trip;
          Alcotest.test_case "zigzag" `Quick test_zigzag_round_trip;
          Alcotest.test_case "varint compact" `Quick test_varint_compact;
          Alcotest.test_case "float64" `Quick test_float_round_trip;
          Alcotest.test_case "bytes and lists" `Quick test_bytes_and_list;
          Alcotest.test_case "option" `Quick test_option;
          Alcotest.test_case "truncated" `Quick test_truncated;
          Alcotest.test_case "malformed" `Quick test_malformed_bool;
          Alcotest.test_case "reader position" `Quick test_reader_position;
          Alcotest.test_case "payload codecs" `Quick test_payload_codecs;
          q varint_property;
          q zigzag_property;
        ] );
      ( "slice",
        [
          Alcotest.test_case "window respected" `Quick test_slice_respects_window;
          Alcotest.test_case "bounds" `Quick test_slice_bounds;
          q slice_decode_property;
          q slice_truncation_property;
        ] );
      ( "bitvec-bytes",
        [
          Alcotest.test_case "packed size" `Quick test_bitvec_bytes_size;
          q bitvec_bytes_property;
        ] );
      ( "wire",
        [
          Alcotest.test_case "data" `Quick test_wire_data_round_trip;
          Alcotest.test_case "init" `Quick test_wire_init_round_trip;
          Alcotest.test_case "join/sync" `Quick test_wire_join_sync_round_trip;
          Alcotest.test_case "pred" `Quick test_wire_pred_round_trip;
          Alcotest.test_case "stable" `Quick test_wire_stable_round_trip;
          Alcotest.test_case "annotations" `Quick test_annotation_round_trips;
          Alcotest.test_case "view" `Quick test_view_round_trip;
          Alcotest.test_case "proposal" `Quick test_proposal_round_trip;
          Alcotest.test_case "sizes" `Quick test_wire_sizes_sane;
          q wire_round_trip_property;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "encode allocates nothing" `Quick test_encode_allocates_nothing;
          Alcotest.test_case "decode allocates only the message" `Quick
            test_decode_allocates_only_the_message;
        ] );
    ]
