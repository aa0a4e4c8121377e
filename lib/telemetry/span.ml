type timeline = {
  sender : int;
  sn : int;
  submit : float option;
  tx : (int * float) list;
  rx : (int * float) list;
  deliver : (int * float) list;
  stable : (int * float) list;
  purged : (int * float) list;
  evicted : (int * float) list;
  shed : (int * float) list;
}

type stat = { count : int; mean : float; p50 : float; p99 : float; max : float }

type anomaly =
  | Never_stable of { messages : int }
  | Floor_regression of { node : int; sender : int; sn : int; prev : int }
  | Long_block of { node : int; view_id : int; span : float }

type report = {
  nodes : int list;
  events : int;
  messages : int;
  deliveries : int;
  purges : int;
  evictions : int;
  sheds : int;
  shed_effectiveness : float;
      (* Fraction of per-peer transmissions that semantic shedding
         saved: sheds / (sheds + tx). A tx with no deliver at a
         shedding peer is expected — the frame was obsolete and a
         cover reached the peer instead — so sheds are reported here,
         not flagged as anomalies. *)
  span : float;
  msgs_per_s : float;
  delivery_latency : stat option;
  remote_latency : stat option;
  stability_lag : stat option;
  purge_latency : stat option;
  purge_effectiveness : float;
  view_changes : int;
  view_spans : stat option;
  merge_spans : stat option;
  anomalies : anomaly list;
}

(* Flight dumps from crashed nodes routinely end mid-line; corrupt or
   truncated lines are skipped, and the count is reported so the
   analyzer can warn instead of silently under-reading. *)
let load_file_counted path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let out = ref [] in
      let bad = ref 0 in
      (try
         while true do
           let line = input_line ic in
           match Trace.record_of_json line with
           | Some r -> out := r :: !out
           | None -> if String.trim line <> "" then incr bad
         done
       with End_of_file -> ());
      (List.rev !out, !bad))

let load_file path = fst (load_file_counted path)

(* Merge the per-node streams on the (shared) trace clock; a stable
   sort keeps each stream's own emission order for equal stamps. *)
let merge streams =
  List.stable_sort
    (fun (a : Trace.record) b -> Float.compare a.Trace.time b.Trace.time)
    (List.concat streams)

let event_node : Trace.event -> int = function
  | Multicast { node; _ }
  | Tx { node; _ }
  | Rx { node; _ }
  | Deliver { node; _ }
  | StableMsg { node; _ }
  | Purge { node; _ }
  | Evict { node; _ }
  | ViewInstall { node; _ }
  | ConsensusDecide { node; _ }
  | Suspect { node; _ }
  | Block { node; _ }
  | Unblock { node; _ }
  | TcpReconnect { node; _ }
  | TcpDrop { node; _ }
  | Quarantine { node; _ }
  | Fault { node; _ }
  | Join { node; _ }
  | StateTransfer { node; _ }
  | WalRecovery { node; _ }
  | Divergence { node; _ }
  | Parked { node; _ }
  | Merge { node; _ }
  | Backpressure { node; _ }
  | Shed { node; _ } ->
      node

type cell = {
  mutable c_submit : float option;
  mutable c_tx : (int * float) list;
  mutable c_rx : (int * float) list;
  mutable c_deliver : (int * float) list;
  mutable c_stable : (int * float) list;
  mutable c_purged : (int * float) list;
  mutable c_evicted : (int * float) list;
  mutable c_shed : (int * float) list;
}

let cells records =
  let tbl : (int * int, cell) Hashtbl.t = Hashtbl.create 256 in
  let cell sender sn =
    let key = (sender, sn) in
    match Hashtbl.find_opt tbl key with
    | Some c -> c
    | None ->
        let c =
          {
            c_submit = None;
            c_tx = [];
            c_rx = [];
            c_deliver = [];
            c_stable = [];
            c_purged = [];
            c_evicted = [];
            c_shed = [];
          }
        in
        Hashtbl.replace tbl key c;
        c
  in
  List.iter
    (fun (r : Trace.record) ->
      let t = r.Trace.time in
      match r.Trace.event with
      | Multicast { node; sn; _ } ->
          let c = cell node sn in
          if c.c_submit = None then c.c_submit <- Some t
      | Tx { node = _; dst; sender; sn; _ } ->
          let c = cell sender sn in
          c.c_tx <- (dst, t) :: c.c_tx
      | Rx { node; sender; sn; _ } ->
          let c = cell sender sn in
          c.c_rx <- (node, t) :: c.c_rx
      | Deliver { node; sender; sn; _ } ->
          let c = cell sender sn in
          c.c_deliver <- (node, t) :: c.c_deliver
      | StableMsg { node; sender; sn } ->
          let c = cell sender sn in
          c.c_stable <- (node, t) :: c.c_stable
      | Purge { node; sender; sn; _ } ->
          let c = cell sender sn in
          c.c_purged <- (node, t) :: c.c_purged
      | Evict { node; sender; sn; _ } ->
          let c = cell sender sn in
          c.c_evicted <- (node, t) :: c.c_evicted
      | Shed { peer; sender; sn; _ } ->
          let c = cell sender sn in
          c.c_shed <- (peer, t) :: c.c_shed
      | _ -> ())
    records;
  tbl

let timelines streams =
  let tbl = cells (merge streams) in
  Hashtbl.fold
    (fun (sender, sn) c acc ->
      {
        sender;
        sn;
        submit = c.c_submit;
        tx = List.rev c.c_tx;
        rx = List.rev c.c_rx;
        deliver = List.rev c.c_deliver;
        stable = List.rev c.c_stable;
        purged = List.rev c.c_purged;
        evicted = List.rev c.c_evicted;
        shed = List.rev c.c_shed;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare (a.sender, a.sn) (b.sender, b.sn))

(* Exact order statistics; p50/p99 by nearest rank so hand-written
   fixtures have predictable answers. *)
let stat_of = function
  | [] -> None
  | xs ->
      let arr = Array.of_list xs in
      Array.sort Float.compare arr;
      let n = Array.length arr in
      let rank q =
        let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
        arr.(Stdlib.max 0 (Stdlib.min (n - 1) i))
      in
      Some
        {
          count = n;
          mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n;
          p50 = rank 0.5;
          p99 = rank 0.99;
          max = arr.(n - 1);
        }

let analyze ?(block_threshold = 5.0) streams =
  let records = merge streams in
  let tls = timelines [ records ] in
  let nodes =
    List.sort_uniq compare (List.map (fun (r : Trace.record) -> event_node r.Trace.event) records)
  in
  (* Span populations. *)
  let delivery = ref [] and remote = ref [] and stability = ref [] and purge_lat = ref [] in
  let deliveries = ref 0 and purges = ref 0 and evictions = ref 0 and messages = ref 0 in
  let sheds = ref 0 and txs = ref 0 in
  let first_submit = ref infinity and last_deliver = ref neg_infinity in
  List.iter
    (fun tl ->
      (match tl.submit with
      | None -> ()
      | Some s ->
          incr messages;
          if s < !first_submit then first_submit := s;
          List.iter
            (fun (node, t) ->
              delivery := (t -. s) :: !delivery;
              if node <> tl.sender then remote := (t -. s) :: !remote)
            tl.deliver;
          (match tl.stable with
          | [] -> ()
          | (_, t0) :: rest ->
              let earliest = List.fold_left (fun acc (_, t) -> Float.min acc t) t0 rest in
              stability := (earliest -. s) :: !stability);
          List.iter (fun (_, t) -> purge_lat := (t -. s) :: !purge_lat) tl.purged);
      deliveries := !deliveries + List.length tl.deliver;
      purges := !purges + List.length tl.purged;
      evictions := !evictions + List.length tl.evicted;
      sheds := !sheds + List.length tl.shed;
      txs := !txs + List.length tl.tx;
      List.iter (fun (_, t) -> if t > !last_deliver then last_deliver := t) tl.deliver)
    tls;
  (* Event-order passes: FIFO floors per (node, sender), blocked spans,
     installed views. *)
  let anomalies = ref [] in
  let floors : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let open_blocks : (int, int * float) Hashtbl.t = Hashtbl.create 8 in
  let block_spans = ref [] in
  let merge_spans = ref [] in
  let views = ref [] in
  let stable_seen = ref false in
  let close_block node time =
    match Hashtbl.find_opt open_blocks node with
    | None -> ()
    | Some (view_id, t0) ->
        Hashtbl.remove open_blocks node;
        let span = time -. t0 in
        block_spans := span :: !block_spans;
        if span > block_threshold then
          anomalies := Long_block { node; view_id; span } :: !anomalies
  in
  List.iter
    (fun (r : Trace.record) ->
      match r.Trace.event with
      | Deliver { node; sender; sn; _ } -> (
          match Hashtbl.find_opt floors (node, sender) with
          | Some prev when prev >= sn ->
              anomalies := Floor_regression { node; sender; sn; prev } :: !anomalies
          | _ -> Hashtbl.replace floors (node, sender) sn)
      | Block { node; view_id } ->
          if not (Hashtbl.mem open_blocks node) then
            Hashtbl.replace open_blocks node (view_id, r.Trace.time)
      | Unblock { node; _ } -> close_block node r.Trace.time
      | ViewInstall { node; view_id; _ } ->
          close_block node r.Trace.time;
          if not (List.mem view_id !views) then views := view_id :: !views
      | Merge { parked_ms; _ } -> merge_spans := (float_of_int parked_ms /. 1000.0) :: !merge_spans
      | StableMsg _ -> stable_seen := true
      | _ -> ())
    records;
  (* A message evicted as covered left the PRED bookkeeping without
     becoming stable: covered, not stuck. *)
  if !stable_seen then begin
    let never =
      List.length
        (List.filter (fun tl -> tl.deliver <> [] && tl.stable = [] && tl.evicted = []) tls)
    in
    if never > 0 then anomalies := Never_stable { messages = never } :: !anomalies
  end;
  let span =
    if !last_deliver > !first_submit then !last_deliver -. !first_submit else 0.0
  in
  {
    nodes;
    events = List.length records;
    messages = !messages;
    deliveries = !deliveries;
    purges = !purges;
    evictions = !evictions;
    sheds = !sheds;
    shed_effectiveness =
      (let total = !sheds + !txs in
       if total = 0 then 0.0 else float_of_int !sheds /. float_of_int total);
    span;
    msgs_per_s = (if span > 0.0 then float_of_int !deliveries /. span else 0.0);
    delivery_latency = stat_of !delivery;
    remote_latency = stat_of !remote;
    stability_lag = stat_of !stability;
    purge_latency = stat_of !purge_lat;
    purge_effectiveness =
      (let total = !purges + !deliveries in
       if total = 0 then 0.0 else float_of_int !purges /. float_of_int total);
    view_changes = List.length !views;
    view_spans = stat_of !block_spans;
    merge_spans = stat_of !merge_spans;
    anomalies = List.rev !anomalies;
  }

(* --- Rendering --- *)

let float_str f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let stat_json = function
  | None -> "null"
  | Some s ->
      Printf.sprintf "{\"count\":%d,\"mean\":%s,\"p50\":%s,\"p99\":%s,\"max\":%s}" s.count
        (float_str s.mean) (float_str s.p50) (float_str s.p99) (float_str s.max)

let report_to_json r =
  let anomaly_count pred = List.length (List.filter pred r.anomalies) in
  Printf.sprintf
    "{\"bench\":\"rt_throughput\",\"nodes\":%d,\"events\":%d,\"messages\":%d,\
     \"deliveries\":%d,\"purged\":%d,\"evicted\":%d,\"shed\":%d,\"shed_effectiveness\":%s,\
     \"span_s\":%s,\"msgs_per_s\":%s,\
     \"delivery_latency_s\":%s,\"remote_delivery_latency_s\":%s,\"stability_lag_s\":%s,\
     \"purge_latency_s\":%s,\"purge_effectiveness\":%s,\"view_changes\":%d,\
     \"view_span_s\":%s,\"merge_s\":%s,\"anomalies\":{\"never_stable\":%d,\
     \"floor_regressions\":%d,\"long_blocks\":%d}}"
    (List.length r.nodes) r.events r.messages r.deliveries r.purges r.evictions r.sheds
    (float_str r.shed_effectiveness) (float_str r.span)
    (float_str r.msgs_per_s)
    (stat_json r.delivery_latency)
    (stat_json r.remote_latency)
    (stat_json r.stability_lag)
    (stat_json r.purge_latency)
    (float_str r.purge_effectiveness)
    r.view_changes
    (stat_json r.view_spans)
    (stat_json r.merge_spans)
    (anomaly_count (function Never_stable { messages } -> messages > 0 | _ -> false))
    (anomaly_count (function Floor_regression _ -> true | _ -> false))
    (anomaly_count (function Long_block _ -> true | _ -> false))

let pp_times ppf times =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
    (fun ppf (node, t) -> Format.fprintf ppf "%d@@%.6f" node t)
    ppf times

let pp_timeline ppf tl =
  Format.fprintf ppf "@[<h>msg %d:%d" tl.sender tl.sn;
  (match tl.submit with
  | Some t -> Format.fprintf ppf " submit@@%.6f" t
  | None -> Format.fprintf ppf " submit=?");
  if tl.rx <> [] then Format.fprintf ppf " rx[%a]" pp_times tl.rx;
  if tl.deliver <> [] then Format.fprintf ppf " deliver[%a]" pp_times tl.deliver;
  if tl.stable <> [] then Format.fprintf ppf " stable[%a]" pp_times tl.stable;
  if tl.purged <> [] then Format.fprintf ppf " purged[%a]" pp_times tl.purged;
  if tl.evicted <> [] then Format.fprintf ppf " evicted[%a]" pp_times tl.evicted;
  if tl.shed <> [] then Format.fprintf ppf " shed[%a]" pp_times tl.shed;
  Format.fprintf ppf "@]"

let pp_anomaly ppf = function
  | Never_stable { messages } ->
      Format.fprintf ppf "never-stable: %d delivered message(s) never declared stable" messages
  | Floor_regression { node; sender; sn; prev } ->
      Format.fprintf ppf
        "floor-regression: node %d delivered %d:%d after already delivering %d:%d" node sender
        sn sender prev
  | Long_block { node; view_id; span } ->
      Format.fprintf ppf "long-block: node %d blocked %.3fs leaving view %d" node span view_id

let pp_stat ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some s ->
      Format.fprintf ppf "n=%d mean=%.6fs p50=%.6fs p99=%.6fs max=%.6fs" s.count s.mean s.p50
        s.p99 s.max

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "nodes            %d (%a)@,"
    (List.length r.nodes)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    r.nodes;
  Format.fprintf ppf "events           %d@," r.events;
  Format.fprintf ppf "messages         %d@," r.messages;
  Format.fprintf ppf "deliveries       %d@," r.deliveries;
  Format.fprintf ppf "purged           %d (effectiveness %.3f)@," r.purges
    r.purge_effectiveness;
  Format.fprintf ppf "evicted          %d (covered by a later delivery before stable)@,"
    r.evictions;
  Format.fprintf ppf "shed             %d (effectiveness %.3f; tx-without-deliver at a \
                      shedding peer is expected)@,"
    r.sheds r.shed_effectiveness;
  Format.fprintf ppf "span             %.3fs (%.1f msgs/s end-to-end)@," r.span r.msgs_per_s;
  Format.fprintf ppf "delivery latency %a@," pp_stat r.delivery_latency;
  Format.fprintf ppf "remote latency   %a@," pp_stat r.remote_latency;
  Format.fprintf ppf "stability lag    %a@," pp_stat r.stability_lag;
  Format.fprintf ppf "purge latency    %a@," pp_stat r.purge_latency;
  Format.fprintf ppf "view changes     %d@," r.view_changes;
  Format.fprintf ppf "blocked spans    %a@," pp_stat r.view_spans;
  Format.fprintf ppf "merge spans      %a@," pp_stat r.merge_spans;
  (match r.anomalies with
  | [] -> Format.fprintf ppf "anomalies        none@,"
  | list ->
      Format.fprintf ppf "anomalies        %d@," (List.length list);
      List.iter (fun a -> Format.fprintf ppf "  %a@," pp_anomaly a) list);
  Format.fprintf ppf "@]"
