(* Tests for the obsolescence machinery: ids, bitvectors, annotations,
   encoders (item tagging, enumeration, k-enumeration, batches). *)

module Msg_id = Svs_obs.Msg_id
module Bitvec = Svs_obs.Bitvec
module Annotation = Svs_obs.Annotation
module Kenum_stream = Svs_obs.Kenum_stream
module Enum_builder = Svs_obs.Enum_builder
module Batch_encoder = Svs_obs.Batch_encoder

let mid sender sn = Msg_id.make ~sender ~sn

(* --- Msg_id --- *)

let test_msg_id_order () =
  Alcotest.(check bool) "precedes same sender" true (Msg_id.precedes (mid 1 2) (mid 1 5));
  Alcotest.(check bool) "no precedes across senders" false (Msg_id.precedes (mid 1 2) (mid 2 5));
  Alcotest.(check bool) "no precedes self" false (Msg_id.precedes (mid 1 2) (mid 1 2));
  Alcotest.(check bool) "compare lexicographic" true (Msg_id.compare (mid 1 9) (mid 2 0) < 0)

(* --- Bitvec --- *)

let test_bitvec_set_get () =
  let b = Bitvec.create ~k:100 in
  Alcotest.(check bool) "empty" true (Bitvec.is_empty b);
  Bitvec.set b 1;
  Bitvec.set b 62;
  Bitvec.set b 63;
  Bitvec.set b 100;
  Alcotest.(check bool) "bit 1" true (Bitvec.get b 1);
  Alcotest.(check bool) "word boundary 62" true (Bitvec.get b 62);
  Alcotest.(check bool) "word boundary 63" true (Bitvec.get b 63);
  Alcotest.(check bool) "bit 100" true (Bitvec.get b 100);
  Alcotest.(check bool) "unset" false (Bitvec.get b 50);
  Alcotest.(check (list int)) "distances" [ 1; 62; 63; 100 ] (Bitvec.distances b)

let test_bitvec_overflow_dropped () =
  let b = Bitvec.create ~k:10 in
  Bitvec.set b 11;
  Alcotest.(check bool) "beyond k silently dropped" true (Bitvec.is_empty b);
  Alcotest.(check bool) "get out of range" false (Bitvec.get b 11);
  Alcotest.check_raises "distance 0 invalid" (Invalid_argument "Bitvec.set: distance must be >= 1")
    (fun () -> Bitvec.set b 0)

let test_bitvec_or_shifted () =
  let src = Bitvec.create ~k:100 in
  Bitvec.set src 2;
  Bitvec.set src 61;
  let into = Bitvec.create ~k:100 in
  Bitvec.or_shifted ~into src ~shift:5;
  Alcotest.(check (list int)) "shifted" [ 7; 66 ] (Bitvec.distances into);
  (* shifting past k drops *)
  let into2 = Bitvec.create ~k:100 in
  Bitvec.or_shifted ~into:into2 src ~shift:50;
  Alcotest.(check (list int)) "partial overflow" [ 52 ] (Bitvec.distances into2)

let test_bitvec_union_equal_copy () =
  let a = Bitvec.create ~k:20 in
  Bitvec.set a 3;
  let b = Bitvec.create ~k:20 in
  Bitvec.set b 15;
  Bitvec.union ~into:a b;
  Alcotest.(check (list int)) "union" [ 3; 15 ] (Bitvec.distances a);
  let c = Bitvec.copy a in
  Alcotest.(check bool) "copy equal" true (Bitvec.equal a c);
  Bitvec.set c 1;
  Alcotest.(check bool) "copy independent" false (Bitvec.equal a c);
  Alcotest.(check int) "cardinal" 3 (Bitvec.cardinal c)

let bitvec_shift_matches_naive =
  QCheck.Test.make ~name:"or_shifted matches naive per-bit shift" ~count:300
    QCheck.(triple (list_of_size Gen.(int_range 0 20) (int_range 1 150)) (int_range 0 80) (int_range 1 150))
    (fun (bits, shift, k) ->
      let src = Bitvec.create ~k in
      List.iter (fun d -> if d <= k then Bitvec.set src d) bits;
      let into = Bitvec.create ~k in
      Bitvec.or_shifted ~into src ~shift;
      let expected = Bitvec.create ~k in
      List.iter (fun d -> if d <= k && d + shift <= k then Bitvec.set expected (d + shift)) bits;
      Bitvec.equal into expected)

(* [next_set] walks exactly [distances], across word boundaries and
   from any starting distance. *)
let bitvec_next_set_matches_distances =
  QCheck.Test.make ~name:"next_set walks distances" ~count:300
    QCheck.(pair (list_of_size Gen.(int_range 0 20) (int_range 1 150)) (int_range 1 150))
    (fun (bits, k) ->
      let b = Bitvec.create ~k in
      List.iter (Bitvec.set b) bits;
      let rec walk d acc =
        match Bitvec.next_set b d with 0 -> List.rev acc | d -> walk (d + 1) (d :: acc)
      in
      walk 1 [] = Bitvec.distances b
      && List.for_all
           (fun d ->
             Bitvec.next_set b d
             = (match List.filter (fun x -> x >= d) (Bitvec.distances b) with
               | x :: _ -> x
               | [] -> 0))
           (List.init (k + 2) Fun.id))

(* --- Annotation semantics --- *)

let test_tag_relation () =
  let older = (mid 0 1, Annotation.Tag 7) in
  let newer = (mid 0 5, Annotation.Tag 7) in
  Alcotest.(check bool) "same tag obsoletes" true (Annotation.obsoletes ~older ~newer);
  Alcotest.(check bool) "reverse does not" false (Annotation.obsoletes ~older:newer ~newer:older);
  Alcotest.(check bool) "different tags unrelated" false
    (Annotation.obsoletes ~older ~newer:(mid 0 5, Annotation.Tag 8));
  Alcotest.(check bool) "different senders unrelated" false
    (Annotation.obsoletes ~older ~newer:(mid 1 5, Annotation.Tag 7))

let test_enum_relation () =
  let older = (mid 0 1, Annotation.Unrelated) in
  let newer = (mid 2 9, Annotation.Enum [ mid 0 1; mid 1 4 ]) in
  Alcotest.(check bool) "enumerated" true (Annotation.obsoletes ~older ~newer);
  Alcotest.(check bool) "not enumerated" false
    (Annotation.obsoletes ~older:(mid 0 2, Annotation.Unrelated) ~newer);
  (* Same-sender enumeration must respect sequence order. *)
  let bogus = (mid 2 10, Annotation.Unrelated) in
  Alcotest.(check bool) "cannot obsolete own future" false
    (Annotation.obsoletes ~older:bogus ~newer:(mid 2 9, Annotation.Enum [ mid 2 10 ]))

let test_kenum_relation () =
  let bm = Bitvec.create ~k:10 in
  Bitvec.set bm 3;
  let newer = (mid 1 20, Annotation.Kenum bm) in
  Alcotest.(check bool) "distance 3" true
    (Annotation.obsoletes ~older:(mid 1 17, Annotation.Unrelated) ~newer);
  Alcotest.(check bool) "distance 2 unset" false
    (Annotation.obsoletes ~older:(mid 1 18, Annotation.Unrelated) ~newer);
  Alcotest.(check bool) "other sender" false
    (Annotation.obsoletes ~older:(mid 2 17, Annotation.Unrelated) ~newer)

let test_covers_reflexive () =
  let m = (mid 3 3, Annotation.Tag 1) in
  Alcotest.(check bool) "covers self" true (Annotation.covers ~older:m ~newer:m);
  Alcotest.(check bool) "does not obsolete self" false (Annotation.obsoletes ~older:m ~newer:m)

let annotation_antisymmetric =
  QCheck.Test.make ~name:"encoded relation is antisymmetric" ~count:500
    QCheck.(quad (int_bound 3) (int_bound 30) (int_bound 3) (int_bound 30))
    (fun (s1, n1, s2, n2) ->
      let bm = Bitvec.create ~k:10 in
      Bitvec.set bm ((n1 mod 10) + 1);
      let a = (mid s1 n1, Annotation.Kenum bm) in
      let bm2 = Bitvec.create ~k:10 in
      Bitvec.set bm2 ((n2 mod 10) + 1);
      let b = (mid s2 n2, Annotation.Kenum bm2) in
      not (Annotation.obsoletes ~older:a ~newer:b && Annotation.obsoletes ~older:b ~newer:a))

(* --- Kenum_stream --- *)

let test_kenum_stream_transitive_composition () =
  let s = Kenum_stream.create ~k:10 () in
  (* m0, m1 obsoletes m0 (distance 1), m2 obsoletes m1 (distance 1). *)
  let _bm0 = Kenum_stream.push s ~direct:[] in
  let _bm1 = Kenum_stream.push s ~direct:[ 1 ] in
  let bm2 = Kenum_stream.push s ~direct:[ 1 ] in
  (* bm2 must cover both m1 (distance 1) and m0 (distance 2). *)
  Alcotest.(check (list int)) "transitive bits" [ 1; 2 ] (Bitvec.distances bm2);
  let newer = (mid 0 2, Annotation.Kenum bm2) in
  Alcotest.(check bool) "covers m0 transitively" true
    (Annotation.obsoletes ~older:(mid 0 0, Annotation.Unrelated) ~newer)

let test_kenum_stream_window_truncation () =
  let s = Kenum_stream.create ~k:3 () in
  for _ = 1 to 5 do
    ignore (Kenum_stream.push s ~direct:[])
  done;
  (* Distance 4 exceeds k=3: silently dropped. *)
  let bm = Kenum_stream.push s ~direct:[ 4 ] in
  Alcotest.(check bool) "dropped" true (Bitvec.is_empty bm)

let test_kenum_stream_push_preds () =
  let s = Kenum_stream.create ~k:10 () in
  ignore (Kenum_stream.push s ~direct:[]);
  ignore (Kenum_stream.push s ~direct:[]);
  let bm = Kenum_stream.push_preds s ~preds:[ 0 ] in
  Alcotest.(check (list int)) "pred 0 at distance 2" [ 2 ] (Bitvec.distances bm)

let test_kenum_stream_long_chain_stays_transitive () =
  (* A hot item updated every step: message n obsoletes n-1; bitmap of
     message n must cover all of the last k predecessors. *)
  let k = 16 in
  let s = Kenum_stream.create ~k () in
  ignore (Kenum_stream.push s ~direct:[]);
  let last = ref (Bitvec.create ~k) in
  for _ = 1 to 40 do
    last := Kenum_stream.push s ~direct:[ 1 ]
  done;
  Alcotest.(check (list int)) "all window distances covered" (List.init k (fun i -> i + 1))
    (Bitvec.distances !last)

(* --- Enum_builder --- *)

let test_enum_builder_transitive () =
  let b = Enum_builder.create ~window:10 () in
  let m0 = mid 0 0 and m1 = mid 0 1 and m2 = mid 0 2 in
  let e0 = Enum_builder.next b ~id:m0 ~direct:[] in
  Alcotest.(check int) "first has no preds" 0 (List.length e0);
  let _e1 = Enum_builder.next b ~id:m1 ~direct:[ m0 ] in
  let e2 = Enum_builder.next b ~id:m2 ~direct:[ m1 ] in
  Alcotest.(check bool) "m2 covers m0 transitively" true (List.exists (Msg_id.equal m0) e2);
  Alcotest.(check bool) "m2 covers m1" true (List.exists (Msg_id.equal m1) e2)

let test_enum_builder_cross_sender () =
  let b = Enum_builder.create ~window:10 () in
  let a = mid 1 0 and c = mid 2 0 in
  ignore (Enum_builder.next b ~id:a ~direct:[]);
  let e = Enum_builder.next b ~id:c ~direct:[ a ] in
  Alcotest.(check bool) "cross-sender enumeration" true (List.exists (Msg_id.equal a) e)

let test_enum_builder_window_eviction () =
  let b = Enum_builder.create ~window:2 () in
  let ids = List.init 5 (mid 0) in
  let rec chain prev = function
    | [] -> []
    | id :: rest ->
        let e = Enum_builder.next b ~id ~direct:(match prev with None -> [] | Some p -> [ p ]) in
        e :: chain (Some id) rest
  in
  let enums = chain None ids in
  let last = List.nth enums 4 in
  Alcotest.(check bool) "window bounds enumeration size" true (List.length last <= 2)

let test_enum_builder_rejects_self () =
  let b = Enum_builder.create ~window:4 () in
  Alcotest.check_raises "self-obsolescence rejected"
    (Invalid_argument "Enum_builder.next: a message cannot obsolete itself") (fun () ->
      ignore (Enum_builder.next b ~id:(mid 0 0) ~direct:[ mid 0 0 ]))

(* --- Batch_encoder (Figure 2 semantics) --- *)

let ann_of e = Batch_encoder.annotation e

let covers_msg ~(older : Batch_encoder.emitted) ~(newer : Batch_encoder.emitted) =
  Annotation.obsoletes
    ~older:(mid 9 older.Batch_encoder.sn, ann_of older)
    ~newer:(mid 9 newer.Batch_encoder.sn, ann_of newer)

let test_batch_figure2_scenario () =
  (* Figure 2: batch {a,b} then batch {b,c}. C(2) — not U(b,2) — makes
     U(b,1) obsolete. *)
  let enc = Batch_encoder.create ~k:16 () in
  let batch1 = Batch_encoder.encode enc ~items:[ 1; 2 ] in
  let batch2 = Batch_encoder.encode enc ~items:[ 2; 3 ] in
  let u_a1 = List.nth batch1 0 in
  let c1 = List.nth batch1 1 in
  let u_b2 = List.nth batch2 0 in
  let c2 = List.nth batch2 1 in
  Alcotest.(check bool) "first of batch1 is pure update" false u_a1.Batch_encoder.commit;
  Alcotest.(check bool) "last of batch1 is commit" true c1.Batch_encoder.commit;
  (* u_b2 (pure update of item 2 in batch 2) must NOT obsolete anything. *)
  Alcotest.(check bool) "pure update obsoletes nothing" true
    (Bitvec.is_empty u_b2.Batch_encoder.bitmap);
  (* c2 obsoletes u_b1 = the pure update of item 2... but in batch1 item 2
     rode the commit, so it is only coverable via the subset rule, which
     does not apply ({1,2} ⊄ {2,3}). Check the documented behaviour. *)
  Alcotest.(check bool) "c2 does not cover c1 (not a subset)" false
    (covers_msg ~older:c1 ~newer:c2)

let test_batch_pure_update_covered () =
  (* batch {a, b} then batch {a, c}: the pure update U(a,1) is covered
     by C(2) because item a reappears. *)
  let enc = Batch_encoder.create ~k:16 () in
  let batch1 = Batch_encoder.encode enc ~items:[ 1; 2 ] in
  let batch2 = Batch_encoder.encode enc ~items:[ 1; 3 ] in
  let u_a1 = List.nth batch1 0 in
  let c2 = List.nth batch2 1 in
  Alcotest.(check bool) "U(a,1) covered by C(2)" true (covers_msg ~older:u_a1 ~newer:c2)

let test_batch_subset_commit_covered () =
  (* batch {a} then batch {a, b}: commit C{a} is covered by C{a,b}. *)
  let enc = Batch_encoder.create ~k:16 () in
  let b1 = Batch_encoder.encode enc ~items:[ 1 ] in
  let b2 = Batch_encoder.encode enc ~items:[ 1; 2 ] in
  let c1 = List.nth b1 0 in
  let c2 = List.nth b2 1 in
  Alcotest.(check int) "single-item batch is one message" 1 (List.length b1);
  Alcotest.(check bool) "subset commit covered" true (covers_msg ~older:c1 ~newer:c2)

let test_batch_single_item_chain () =
  (* Single-item batches to the same item chain transitively. *)
  let enc = Batch_encoder.create ~k:16 () in
  let m1 = List.hd (Batch_encoder.encode enc ~items:[ 5 ]) in
  let _m2 = List.hd (Batch_encoder.encode enc ~items:[ 5 ]) in
  let m3 = List.hd (Batch_encoder.encode enc ~items:[ 5 ]) in
  Alcotest.(check bool) "chain start covered transitively" true
    (covers_msg ~older:m1 ~newer:m3)

let test_batch_separate_commit () =
  let enc = Batch_encoder.create ~k:16 ~separate_commit:true () in
  let b1 = Batch_encoder.encode enc ~items:[ 1; 2 ] in
  Alcotest.(check int) "n updates + dedicated commit" 3 (List.length b1);
  let commit = List.nth b1 2 in
  Alcotest.(check bool) "commit has no item" true (commit.Batch_encoder.item = None);
  (* With a separate commit every per-item update is coverable. *)
  let b2 = Batch_encoder.encode enc ~items:[ 2 ] in
  let u_b1 = List.nth b1 1 in
  let c2 = List.nth b2 1 in
  Alcotest.(check bool) "U(b,1) covered by next batch commit" true
    (covers_msg ~older:u_b1 ~newer:c2)

let test_batch_rejects_bad_input () =
  let enc = Batch_encoder.create ~k:8 () in
  Alcotest.check_raises "empty" (Invalid_argument "Batch_encoder.encode: empty batch")
    (fun () -> ignore (Batch_encoder.encode enc ~items:[]));
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Batch_encoder.encode: duplicate items in batch") (fun () ->
      ignore (Batch_encoder.encode enc ~items:[ 1; 1 ]))

(* Property: the encoded relation from random batch streams is
   transitive within the window (chains that fit in k compose). *)
let batch_encoding_transitive =
  QCheck.Test.make ~name:"batch k-enum encoding is transitively closed in-window" ~count:60
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 30) (int_range 1 4)))
    (fun (seed, sizes) ->
      let rng = Svs_sim.Rng.create ~seed in
      let k = 64 in
      let enc = Batch_encoder.create ~k () in
      let all = ref [] in
      List.iter
        (fun size ->
          let items =
            List.sort_uniq compare (List.init size (fun _ -> Svs_sim.Rng.int rng 6))
          in
          let msgs = Batch_encoder.encode enc ~items in
          all := !all @ List.map (fun e -> (mid 0 e.Batch_encoder.sn, ann_of e)) msgs)
        sizes;
      let msgs = Array.of_list !all in
      let n = Array.length msgs in
      let obsoletes i j = Annotation.obsoletes ~older:msgs.(i) ~newer:msgs.(j) in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          for l = j + 1 to n - 1 do
            let dist_il = (fst msgs.(l)).Msg_id.sn - (fst msgs.(i)).Msg_id.sn in
            if obsoletes i j && obsoletes j l && dist_il <= k && not (obsoletes i l) then
              ok := false
          done
        done
      done;
      !ok)

(* --- Shed: prefix-safe shedding of queued frames --- *)

module Shed = Svs_obs.Shed

(* A transport-queue frame as the walk sees it: control frames have no
   key; [wshed] marks frames already shed by an earlier walk (retained
   in place, chaining the cover relation). *)
type walk_frame = { wkey : Shed.key option; wshed : bool }

let wmeta f = f.wkey

let wshed f = f.wshed

let dframe ?(shed = false) ~sender ~sn ann =
  { wkey = Some { Shed.id = mid sender sn; ann; view = 0 }; wshed = shed }

let ctrl = { wkey = None; wshed = false }

let fresh_key ~sender ~sn ann = { Shed.id = mid sender sn; ann; view = 0 }

(* The crash counterexample from the module doc: FIFO queue [m; x],
   fresh m' covers m but not x. Shedding m would let a receiver that
   gets x (then the sender dies) advance past m with no cover — the
   walk must stop at x and shed nothing. *)
let test_shed_stops_at_uncovered () =
  let m = dframe ~sender:0 ~sn:0 (Annotation.Tag 7) in
  let x = dframe ~sender:0 ~sn:1 (Annotation.Tag 9) in
  let fresh = fresh_key ~sender:0 ~sn:2 (Annotation.Tag 7) in
  (* newest-first: [x; m] *)
  Alcotest.(check int) "uncovered live frame blocks the walk" 0
    (List.length (Shed.walk ~meta:wmeta ~shed:wshed ~fresh [ x; m ]));
  (* Control frames carry no obligations: same shape, but x is a
     control frame — now m is sheddable. *)
  let victims = Shed.walk ~meta:wmeta ~shed:wshed ~fresh [ ctrl; m ] in
  Alcotest.(check bool) "control frame is transparent" true
    (match victims with [ v ] -> v == m | _ -> false)

let test_shed_contiguous_chain () =
  (* A whole Tag chain pending behind a paused link: every frame is
     covered by the next, so all of it sheds at once. *)
  let chain = List.init 5 (fun i -> dframe ~sender:0 ~sn:i (Annotation.Tag 3)) in
  let fresh = fresh_key ~sender:0 ~sn:5 (Annotation.Tag 3) in
  let victims = Shed.walk ~meta:wmeta ~shed:wshed ~fresh (List.rev chain) in
  Alcotest.(check int) "whole chain shed" 5 (List.length victims);
  (* A foreign-sender frame in the middle splits it: only the newer
     run sheds (Tag covers only same-sender messages). *)
  let alien = dframe ~sender:1 ~sn:100 (Annotation.Tag 3) in
  let q = List.rev chain @ [ alien ] @ List.rev chain in
  Alcotest.(check int) "walk stops at the alien frame" 5
    (List.length (Shed.walk ~meta:wmeta ~shed:wshed ~fresh q))

let test_shed_transitive_through_shed () =
  (* Enum annotations make the transitivity explicit: fresh covers
     only m2, m2 covers only m1. m2 was already shed by an earlier
     walk — its annotation still chains, so m1 is sheddable. *)
  let m1 = dframe ~sender:0 ~sn:0 (Annotation.Enum [ mid 9 9 ]) in
  let m2 = dframe ~shed:true ~sender:0 ~sn:1 (Annotation.Enum [ mid 0 0 ]) in
  let fresh = fresh_key ~sender:0 ~sn:2 (Annotation.Enum [ mid 0 1 ]) in
  let victims = Shed.walk ~meta:wmeta ~shed:wshed ~fresh [ m2; m1 ] in
  Alcotest.(check bool) "cover chains through the shed frame" true
    (match victims with [ v ] -> v == m1 | _ -> false);
  (* With m2 live and a fresh frame covering nothing, the walk stops
     at m2 immediately: nothing sheds, even though m2 covers m1 —
     shedding m1 alone would be pointless (m2 still carries it) and
     the suffix rule only sheds behind an established cover. *)
  let m2_live = dframe ~sender:0 ~sn:1 (Annotation.Enum [ mid 0 0 ]) in
  let aloof = fresh_key ~sender:0 ~sn:2 (Annotation.Enum [ mid 9 9 ]) in
  Alcotest.(check int) "no cover, no shedding" 0
    (List.length (Shed.walk ~meta:wmeta ~shed:wshed ~fresh:aloof [ m2_live; m1 ]))

let test_shed_view_fence () =
  (* Covers never cross a view boundary: the PRED exchange settles
     older views, so a fresh frame of view 1 must not shed view-0
     frames however related the annotations look. *)
  let m = dframe ~sender:0 ~sn:0 (Annotation.Tag 3) in
  let fresh = { Shed.id = mid 0 1; ann = Annotation.Tag 3; view = 1 } in
  Alcotest.(check int) "other view retained" 0
    (List.length (Shed.walk ~meta:wmeta ~shed:wshed ~fresh [ m ]))

(* Reference implementation of the suffix rule: the uncapped walk,
   written independently of the module. With queues far below
   [max_walk]/[max_cover] the caps never bind, so the real walk must
   agree exactly. *)
let reference_walk ~fresh frames =
  let covered cover (k : Shed.key) =
    List.exists
      (fun (c : Shed.key) ->
        c.Shed.view = k.Shed.view
        && Annotation.obsoletes ~older:(k.Shed.id, k.Shed.ann)
             ~newer:(c.Shed.id, c.Shed.ann))
      cover
  in
  let rec go cover victims = function
    | [] -> List.rev victims
    | f :: rest -> (
        match f.wkey with
        | None -> go cover victims rest
        | Some k ->
            if f.wshed then go (k :: cover) victims rest
            else if covered cover k then go (k :: cover) (f :: victims) rest
            else List.rev victims)
  in
  go [ fresh ] [] frames

(* Random transport queues: two senders, Tag/Unrelated annotations,
   interleaved control frames, some frames pre-shed by earlier walks.
   Checks the walk against the reference, and — independently of
   both — the safety property the suffix rule exists for: a victim is
   always obsoleted by the fresh frame or by a newer frame that is
   itself shed (present in the multicast log), never silently lost. *)
let shed_walk_sound =
  QCheck.Test.make ~name:"shed walk matches uncapped reference and never strands a frame"
    ~count:1000
    (QCheck.make
       ~print:(fun (kinds, s, tag) ->
         Printf.sprintf "%d frames, fresh sender %d tag %d" (List.length kinds) s tag)
       QCheck.Gen.(
         triple
           (list_size (int_range 0 12) (pair (int_range 0 4) bool))
           (int_range 0 1) (int_range 1 2)))
    (fun (kinds, fsender, ftag) ->
      (* FIFO order, oldest first; sn = position keeps ids unique and
         monotone per sender. *)
      let frames_fifo =
        List.mapi
          (fun i (kind, pre_shed) ->
            match kind with
            | 0 -> ctrl
            | 1 -> dframe ~shed:pre_shed ~sender:0 ~sn:i (Annotation.Tag 1)
            | 2 -> dframe ~shed:pre_shed ~sender:0 ~sn:i (Annotation.Tag 2)
            | 3 -> dframe ~shed:pre_shed ~sender:1 ~sn:i (Annotation.Tag 1)
            | _ -> dframe ~shed:pre_shed ~sender:(i mod 2) ~sn:i Annotation.Unrelated)
          kinds
      in
      let newest_first = List.rev frames_fifo in
      let fresh =
        fresh_key ~sender:fsender ~sn:(List.length kinds) (Annotation.Tag ftag)
      in
      let victims = Shed.walk ~meta:wmeta ~shed:wshed ~fresh newest_first in
      let expected = reference_walk ~fresh newest_first in
      let same_set a b =
        List.length a = List.length b && List.for_all (fun f -> List.memq f b) a
      in
      let live_data f = f.wkey <> None && not f.wshed in
      (* For a victim, the frames NEWER than it (between it and the
         queue tail) that a receiver's cover search can still rely
         on: the fresh frame, frames shed by earlier walks, and this
         walk's other victims — all present in the multicast log. *)
      let newer_keys v =
        let rec take acc = function
          | [] -> acc
          | f :: rest ->
              if f == v then acc
              else
                let acc =
                  match f.wkey with
                  | Some k when f.wshed || List.memq f victims -> k :: acc
                  | _ -> acc
                in
                take acc rest
        in
        take [ fresh ] newest_first
      in
      let never_stranded =
        List.for_all
          (fun v ->
            match v.wkey with
            | None -> false
            | Some k -> Shed.covered_by ~cover:(newer_keys v) k)
          victims
      in
      same_set victims expected
      && List.for_all live_data victims
      && never_stranded)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "svs_obs"
    [
      ("msg_id", [ Alcotest.test_case "ordering" `Quick test_msg_id_order ]);
      ( "bitvec",
        [
          Alcotest.test_case "set/get" `Quick test_bitvec_set_get;
          Alcotest.test_case "overflow dropped" `Quick test_bitvec_overflow_dropped;
          Alcotest.test_case "or_shifted" `Quick test_bitvec_or_shifted;
          Alcotest.test_case "union/equal/copy" `Quick test_bitvec_union_equal_copy;
          q bitvec_shift_matches_naive;
          q bitvec_next_set_matches_distances;
        ] );
      ( "annotation",
        [
          Alcotest.test_case "item tagging" `Quick test_tag_relation;
          Alcotest.test_case "enumeration" `Quick test_enum_relation;
          Alcotest.test_case "k-enumeration" `Quick test_kenum_relation;
          Alcotest.test_case "covers reflexive" `Quick test_covers_reflexive;
          q annotation_antisymmetric;
        ] );
      ( "kenum-stream",
        [
          Alcotest.test_case "transitive composition" `Quick test_kenum_stream_transitive_composition;
          Alcotest.test_case "window truncation" `Quick test_kenum_stream_window_truncation;
          Alcotest.test_case "push_preds" `Quick test_kenum_stream_push_preds;
          Alcotest.test_case "hot-item chain" `Quick test_kenum_stream_long_chain_stays_transitive;
        ] );
      ( "enum-builder",
        [
          Alcotest.test_case "transitive closure" `Quick test_enum_builder_transitive;
          Alcotest.test_case "cross-sender" `Quick test_enum_builder_cross_sender;
          Alcotest.test_case "window eviction" `Quick test_enum_builder_window_eviction;
          Alcotest.test_case "rejects self" `Quick test_enum_builder_rejects_self;
        ] );
      ( "batch-encoder",
        [
          Alcotest.test_case "figure 2 scenario" `Quick test_batch_figure2_scenario;
          Alcotest.test_case "pure update covered" `Quick test_batch_pure_update_covered;
          Alcotest.test_case "subset commit" `Quick test_batch_subset_commit_covered;
          Alcotest.test_case "single-item chain" `Quick test_batch_single_item_chain;
          Alcotest.test_case "separate commit" `Quick test_batch_separate_commit;
          Alcotest.test_case "input validation" `Quick test_batch_rejects_bad_input;
          q batch_encoding_transitive;
        ] );
      ( "shed",
        [
          Alcotest.test_case "stops at uncovered frame" `Quick test_shed_stops_at_uncovered;
          Alcotest.test_case "contiguous chain" `Quick test_shed_contiguous_chain;
          Alcotest.test_case "transitive through shed" `Quick
            test_shed_transitive_through_shed;
          Alcotest.test_case "view fence" `Quick test_shed_view_fence;
          q shed_walk_sound;
        ] );
    ]
