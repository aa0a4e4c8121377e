(* Output checking for one run.

   During the measured window the driver only appends packed integers
   (sender 0's sequence number and view id) to off-heap logs; after the
   window the log is replayed into [Svs_core.Checker] and into a
   coverage account.

   - Checker. [Checker.build_successors] is quadratic in the number of
     multicasts, so a long log is checked in blocks of [block]
     consecutive sequence numbers: each block is a fresh checker that
     sees the block's multicasts, every process's initial install and
     the block's deliveries in delivery order. With an empty relation
     (plain VS) each block also gets a closing install after the last
     delivery, so [verify_strict_vs] demands that every process
     delivered every message of the block. A log with view changes is
     small by construction (the churn workload runs at a low rate) and
     is checked whole, installs in place.
   - Integrity and FIFO across block boundaries are checked directly:
     every process's sequence numbers must strictly increase.
   - Coverage. A message is served at a receiver when the receiver
     delivered it or delivered a message that covers it under the
     transitive closure of the generated k-enumeration relation. The
     check walks sequence numbers downwards, so a message covered
     through purged intermediates counts as served. The same walk
     gives the time each message was served, which is what the
     benchmark's latency measures.

   The inverted self-test drops one uncovered delivery from the log
   and requires the same verdict to reject it. *)

module Checker = Svs_core.Checker
module View = Svs_core.View
module Msg_id = Svs_obs.Msg_id
module Annotation = Svs_obs.Annotation
module Bitvec = Svs_obs.Bitvec
module Ints = Samples.Ints

let publisher = 0

let sn_bits = 40

let pack ~view_id ~sn = (view_id lsl sn_bits) lor sn

let sn_of p = p land ((1 lsl sn_bits) - 1)

let view_of p = p lsr sn_bits

(* Checker block size, in multicasts. *)
let block = 64

(* Largest log with view changes the checker is run on whole. *)
let whole_limit = 20_000

type t = {
  n_nodes : int;
  initial : View.t;
  ann : int -> Annotation.t;  (* by sequence number *)
  mcasts : Ints.t;  (* packed, in multicast order; sn = index *)
  deliveries : Ints.t array;  (* per process, packed, in delivery order *)
  mutable installs : (int * int * View.t) list;
      (* (process, deliveries before it, view), newest first *)
}

let create ~n_nodes ~ann =
  {
    n_nodes;
    initial = View.initial ~members:(List.init n_nodes Fun.id);
    ann;
    mcasts = Ints.create ();
    deliveries = Array.init n_nodes (fun _ -> Ints.create ());
    installs = [];
  }

let record_multicast t ~sn ~view_id = Ints.push t.mcasts (pack ~view_id ~sn)

let record_delivery t ~p ~sn ~view_id = Ints.push t.deliveries.(p) (pack ~view_id ~sn)

let record_install t ~p v = t.installs <- (p, Ints.length t.deliveries.(p), v) :: t.installs

let multicasts t = Ints.length t.mcasts

let installs_of t p =
  List.rev (List.filter_map (fun (q, pos, v) -> if q = p then Some (pos, v) else None) t.installs)

let meta t packed =
  let sn = sn_of packed in
  { Checker.id = Msg_id.make ~sender:publisher ~sn; ann = t.ann sn; view_id = view_of packed }

(* A delivery left out of the replayed log: (process, position). *)
type skip = (int * int) option

let skipped skip p i = match skip with Some (q, j) -> q = p && j = i | None -> false

(* Integrity (no creation, no duplicate) and FIFO over the whole log. *)
let check_order t ~skip =
  let n = multicasts t in
  let bad = ref [] in
  for p = 0 to t.n_nodes - 1 do
    let ds = t.deliveries.(p) in
    let last = ref (-1) in
    for i = 0 to Ints.length ds - 1 do
      if not (skipped skip p i) then begin
        let sn = sn_of (Ints.get ds i) in
        if sn >= n then bad := Printf.sprintf "process %d delivered never-multicast sn %d" p sn :: !bad;
        if sn <= !last then
          bad := Printf.sprintf "process %d delivered sn %d after sn %d" p sn !last :: !bad;
        last := sn
      end
    done
  done;
  List.rev !bad

(* [served.(sn)] starts as the time [sn] was delivered ([nan] if never)
   and ends as the time it was first served: the earliest delivery of
   it or of a message covering it, through the closure of the relation.
   Covers have higher sequence numbers, so one downward walk settles
   every message before its predecessors are reached. *)
let cover_walk t served =
  for sn = Array.length served - 1 downto 0 do
    let x = served.(sn) in
    if not (Float.is_nan x) then
      match t.ann sn with
      | Annotation.Unrelated -> ()
      | Annotation.Kenum bv ->
          for d = 1 to min sn (Bitvec.k bv) do
            if Bitvec.get bv d then begin
              let y = served.(sn - d) in
              if Float.is_nan y || x < y then served.(sn - d) <- x
            end
          done
      | Annotation.Tag _ | Annotation.Enum _ ->
          invalid_arg "Oracle: only k-enumeration annotations are generated"
  done;
  served

(* When each message was first served at a process, given when each
   was delivered there ([nan] if never). *)
let served_times t ~delivered_at = cover_walk t (Array.init (multicasts t) delivered_at)

(* Messages unserved at some process of [receivers]. *)
let unserved t ~skip ~receivers =
  let n = multicasts t in
  let failed = Bytes.make n '\000' in
  List.iter
    (fun p ->
      let served = Array.make n Float.nan in
      let ds = t.deliveries.(p) in
      for i = 0 to Ints.length ds - 1 do
        let sn = sn_of (Ints.get ds i) in
        if sn < n && not (skipped skip p i) then served.(sn) <- 0.0
      done;
      Array.iteri
        (fun sn x -> if Float.is_nan x then Bytes.set failed sn '\001')
        (cover_walk t served))
    receivers;
  let count = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr count) failed;
  !count

let violations_of c ~strict =
  List.map Checker.violation_to_string
    (if strict then Checker.verify_strict_vs c else Checker.verify c)

(* The whole log into one checker, installs in place. *)
let check_whole t ~skip ~strict ~converged =
  let c = Checker.create () in
  for i = 0 to multicasts t - 1 do
    Checker.record_multicast c (meta t (Ints.get t.mcasts i))
  done;
  for p = 0 to t.n_nodes - 1 do
    Checker.record_install c ~p t.initial;
    let pending = ref (installs_of t p) in
    let installs_upto i =
      let rec go () =
        match !pending with
        | (pos, v) :: rest when pos <= i ->
            Checker.record_install c ~p v;
            pending := rest;
            go ()
        | _ -> ()
      in
      go ()
    in
    let ds = t.deliveries.(p) in
    for i = 0 to Ints.length ds - 1 do
      installs_upto i;
      if not (skipped skip p i) then Checker.record_delivery c ~p (meta t (Ints.get ds i))
    done;
    installs_upto max_int
  done;
  violations_of c ~strict
  @
  match converged with
  | None -> []
  | Some survivors -> List.map Checker.violation_to_string (Checker.check_converged c ~survivors)

(* Block-wise: every process's deliveries are strictly increasing (the
   order check ran first), so each block's deliveries are one
   contiguous run per process. *)
let check_blocks ?only t ~skip ~strict =
  let n = multicasts t in
  let cursor = Array.make t.n_nodes 0 in
  let closing = View.make ~id:(t.initial.View.id + 1) ~members:t.initial.View.members in
  let bad = ref [] in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + block) in
    let wanted = match only with None -> true | Some sn -> sn >= !lo && sn < hi in
    let c = if wanted then Some (Checker.create ()) else None in
    Option.iter
      (fun c ->
        for i = !lo to hi - 1 do
          Checker.record_multicast c (meta t (Ints.get t.mcasts i))
        done)
      c;
    for p = 0 to t.n_nodes - 1 do
      Option.iter (fun c -> Checker.record_install c ~p t.initial) c;
      let ds = t.deliveries.(p) in
      while cursor.(p) < Ints.length ds && sn_of (Ints.get ds cursor.(p)) < hi do
        let i = cursor.(p) in
        (match c with
        | Some c when not (skipped skip p i) -> Checker.record_delivery c ~p (meta t (Ints.get ds i))
        | Some _ | None -> ());
        cursor.(p) <- i + 1
      done;
      if strict then Option.iter (fun c -> Checker.record_install c ~p closing) c
    done;
    Option.iter (fun c -> bad := List.rev_append (violations_of c ~strict) !bad) c;
    lo := hi
  done;
  List.rev !bad

type verdict = { violations : string list; unserved : int }

let rejects v = v.violations <> [] || v.unserved > 0

(* [strict]: demand classical VS (the relation is empty). [receivers]:
   processes at which every message must be served. [converged]:
   processes that must end in the final view. *)
let verdict ?(skip = None) ?only t ~strict ~receivers ~converged =
  let order = check_order t ~skip in
  let checker =
    if order <> [] then []
    else if t.installs = [] then check_blocks ?only t ~skip ~strict
    else if multicasts t <= whole_limit then check_whole t ~skip ~strict ~converged
    else [ Printf.sprintf "view change in a log of %d multicasts (too long to check whole)" (multicasts t) ]
  in
  { violations = order @ checker; unserved = unserved t ~skip ~receivers }

(* Which delivery the self-test drops: process 1's last delivery before
   a view change that process 0 delivered in the same view (so the
   checker's SVS clause owes a cover of it), else process 1's last
   delivery (nothing later can cover it). *)
let self_test_target t =
  let q = 1 in
  let ds = t.deliveries.(q) in
  let d0 = t.deliveries.(0) in
  let delivered_by_0 packed =
    let found = ref false in
    for i = 0 to Ints.length d0 - 1 do
      if Ints.get d0 i = packed then found := true
    done;
    !found
  in
  let at_boundaries =
    List.filter_map
      (fun (pos, _) ->
        if pos > 0 && delivered_by_0 (Ints.get ds (pos - 1)) then Some (pos - 1) else None)
      (installs_of t q)
  in
  match List.rev at_boundaries with
  | pos :: _ -> Some (q, pos)
  | [] -> if Ints.length ds > 0 then Some (q, Ints.length ds - 1) else None

(* True when the verdict rejects the log with one uncovered delivery
   dropped. *)
let self_test t ~strict ~receivers ~converged =
  match self_test_target t with
  | None -> false
  | Some (q, pos) as skip ->
      let only = sn_of (Ints.get t.deliveries.(q) pos) in
      rejects (verdict ~skip ~only t ~strict ~receivers ~converged)
