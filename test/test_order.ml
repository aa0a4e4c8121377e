(* Tests for the semantic total-order multicast. *)

module Engine = Svs_sim.Engine
module Network = Svs_net.Network
module Latency = Svs_net.Latency
module Total = Svs_order.Total
module Annotation = Svs_obs.Annotation
module Msg_id = Svs_obs.Msg_id
module Rng = Svs_sim.Rng

(* --- Total order rig --- *)

type 'p total_rig = {
  engine : Engine.t;
  nodes : 'p Total.t array;
}

let make_total ?(n = 3) ?(semantic = true) ?(latency = Latency.Uniform { lo = 0.001; hi = 0.03 })
    ?(seed = 3) () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine ~nodes:n ~latency () in
  let members = List.init n Fun.id in
  let nodes =
    Array.init n (fun me ->
        Total.create ~me ~members ~semantic
          ~send:(fun ~dst msg -> Network.send net ~src:me ~dst msg)
          ())
  in
  Array.iteri
    (fun i node ->
      Network.set_handler net ~node:i (fun ~src msg -> Total.on_message node ~src msg))
    nodes;
  { engine; nodes }

let test_total_same_order_across_senders () =
  let rig = make_total () in
  (* Concurrent senders: with random latencies arrival orders differ,
     but delivery order must agree. *)
  for i = 1 to 8 do
    ignore (Total.multicast rig.nodes.(i mod 3) (100 + i))
  done;
  Engine.run rig.engine;
  let orders =
    Array.map
      (fun node -> List.map (fun (seq, d) -> (seq, d.Total.payload)) (Total.deliver_all node))
      rig.nodes
  in
  Alcotest.(check int) "all messages sequenced" 8 (List.length orders.(0));
  Alcotest.(check bool) "node 1 agrees with sequencer" true (orders.(1) = orders.(0));
  Alcotest.(check bool) "node 2 agrees with sequencer" true (orders.(2) = orders.(0))

let test_total_purging_consistent () =
  let rig = make_total () in
  for i = 1 to 6 do
    ignore (Total.multicast rig.nodes.(0) ~ann:(Annotation.Tag 9) i)
  done;
  Engine.run rig.engine;
  let survivors =
    Array.map
      (fun node -> List.map (fun (_, d) -> d.Total.payload) (Total.deliver_all node))
      rig.nodes
  in
  Alcotest.(check (list int)) "only the cover survives" [ 6 ] survivors.(0);
  Alcotest.(check bool) "identical at all nodes" true
    (survivors.(1) = survivors.(0) && survivors.(2) = survivors.(0));
  Alcotest.(check bool) "slots advanced past ghosts" true
    (Array.for_all (fun node -> Total.next_seq node = 6) rig.nodes)

let test_total_order_before_data () =
  (* The order notice can overtake the data on a slow link; delivery
     must wait for the payload. *)
  let engine = Engine.create ~seed:4 () in
  let net = Network.create engine ~nodes:2 ~latency:Latency.Zero () in
  let members = [ 0; 1 ] in
  let nodes =
    Array.init 2 (fun me ->
        Total.create ~me ~members ~send:(fun ~dst msg -> Network.send net ~src:me ~dst msg) ())
  in
  Array.iteri
    (fun i node -> Network.set_handler net ~node:i (fun ~src msg -> Total.on_message node ~src msg))
    nodes;
  (* Hold the 1 -> 0 data back; let node 1's data reach the sequencer
     via a fast path... instead simulate: node 1 sends; its data to 0
     is partitioned, so 0 (the sequencer) cannot order it yet. *)
  Network.disconnect net 0 1;
  ignore (Total.multicast nodes.(1) "late");
  Engine.run engine;
  Alcotest.(check bool) "nothing deliverable yet" true (Total.deliver nodes.(0) = None);
  Network.reconnect net 0 1;
  Engine.run engine;
  (match Total.deliver_all nodes.(0) with
  | [ (0, d) ] -> Alcotest.(check string) "delivered after data arrived" "late" d.Total.payload
  | other -> Alcotest.failf "unexpected deliveries: %d" (List.length other));
  Alcotest.(check bool) "node 1 delivers too" true
    (List.map (fun (_, d) -> d.Total.payload) (Total.deliver_all nodes.(1)) = [ "late" ])

let test_total_sequencer_identity () =
  let rig = make_total () in
  Array.iter
    (fun node -> Alcotest.(check int) "lowest id sequences" 0 (Total.sequencer node))
    rig.nodes

(* Property: at quiescence with full drains, all nodes deliver exactly
   the same (seq, id) sequence, and omitted sequenced messages are
   covered by later-delivered ones. *)
let total_property =
  QCheck.Test.make ~name:"total order agrees at every node" ~count:40
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 30) (pair (int_bound 2) (int_bound 3))))
    (fun (seed, sends) ->
      let rig = make_total ~seed ~latency:(Latency.Exponential { mean = 0.01 }) () in
      List.iter
        (fun (sender, tag) ->
          ignore (Total.multicast rig.nodes.(sender) ~ann:(Annotation.Tag tag) (sender, tag)))
        sends;
      Engine.run rig.engine;
      let sequences =
        Array.map
          (fun node -> List.map (fun (seq, d) -> (seq, d.Total.id)) (Total.deliver_all node))
          rig.nodes
      in
      Array.for_all (fun s -> s = sequences.(0)) sequences)

(* --- Wire codecs --- *)

module Codec = Svs_codec.Codec

let test_total_msg_round_trip () =
  let w = Codec.Writer.create () in
  let captured = ref [] in
  ignore w;
  let node =
    Total.create ~me:0 ~members:[ 0; 1 ]
      ~send:(fun ~dst:_ msg ->
        let w = Codec.Writer.create () in
        Total.write_msg Codec.Writer.zigzag w msg;
        captured := Codec.Writer.contents w :: !captured)
      ()
  in
  ignore (Total.multicast node ~ann:(Annotation.Tag 1) 5);
  (* The sequencer (node 0) emitted both the data and the order. *)
  Alcotest.(check int) "data + order frames" 2 (List.length !captured);
  let receiver = Total.create ~me:1 ~members:[ 0; 1 ] ~send:(fun ~dst:_ _ -> ()) () in
  List.iter
    (fun bytes ->
      Total.on_message receiver ~src:0
        (Total.read_msg Codec.Reader.zigzag (Codec.Reader.of_string bytes)))
    (List.rev !captured);
  match Total.deliver receiver with
  | Some (0, d) -> Alcotest.(check int) "payload survives" 5 d.Total.payload
  | Some _ | None -> Alcotest.fail "decoded sequence not delivered"

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "svs_order"
    [
      ( "total",
        [
          Alcotest.test_case "same order" `Quick test_total_same_order_across_senders;
          Alcotest.test_case "consistent purging" `Quick test_total_purging_consistent;
          Alcotest.test_case "order before data" `Quick test_total_order_before_data;
          Alcotest.test_case "sequencer identity" `Quick test_total_sequencer_identity;
          Alcotest.test_case "wire round-trip" `Quick test_total_msg_round_trip;
          q total_property;
        ] );
    ]
