module Rng = Svs_sim.Rng
module Latency = Svs_net.Latency

type action =
  | Crash of int
  | Pause of int
  | Resume of int
  | Partition of int * int
  | Heal of int * int
  | Split of int list list
  | Heal_split
  | Leave of { initiator : int; node : int }
  | Rejoin of int
  | Set_latency of Latency.t
  | Restore_latency

type timed = { at : float; action : action }

type t = {
  name : string;
  doc : string;
  plan : rng:Rng.t -> n:int -> horizon:float -> timed list;
  heal_at_settle : bool;
  park_timeout : float option;
  expect_reconverge : bool;
  shed_limit : int option;
      (* Network-level semantic shedding for this scenario's runs (the
         Group config [shed] value); None leaves queues unbounded. *)
  backlog_budget : int option;
      (* Overload acceptance: the peak paused-inbox data backlog (any
         node) a run is allowed with shedding on — and must EXCEED
         with shedding off, the inverted no-shed self-test. *)
}

let action_kind = function
  | Crash _ -> "crash"
  | Pause _ -> "pause"
  | Resume _ -> "resume"
  | Partition _ -> "partition"
  | Heal _ -> "heal"
  | Split _ -> "split"
  | Heal_split -> "split-heal"
  | Leave _ -> "leave"
  | Rejoin _ -> "rejoin"
  | Set_latency _ -> "latency"
  | Restore_latency -> "latency-restore"

let pp_sets ppf sets =
  Format.fprintf ppf "%s"
    (String.concat "|"
       (List.map (fun s -> String.concat "," (List.map string_of_int s)) sets))

let pp_action ppf = function
  | Crash p -> Format.fprintf ppf "crash(%d)" p
  | Pause p -> Format.fprintf ppf "pause(%d)" p
  | Resume p -> Format.fprintf ppf "resume(%d)" p
  | Partition (a, b) -> Format.fprintf ppf "partition(%d,%d)" a b
  | Heal (a, b) -> Format.fprintf ppf "heal(%d,%d)" a b
  | Split sets -> Format.fprintf ppf "split(%a)" pp_sets sets
  | Heal_split -> Format.fprintf ppf "split-heal"
  | Leave { initiator; node } -> Format.fprintf ppf "leave(%d by %d)" node initiator
  | Rejoin p -> Format.fprintf ppf "rejoin(%d)" p
  | Set_latency l -> Format.fprintf ppf "latency(%a)" Latency.pp l
  | Restore_latency -> Format.fprintf ppf "latency(restore)"

let pp_timed ppf { at; action } = Format.fprintf ppf "@%.3fs %a" at pp_action action

let by_time plan = List.stable_sort (fun a b -> Float.compare a.at b.at) plan

(* Random distinct victims among 1..n-1 (node 0 is the anchor). *)
let victims rng ~n ~k =
  let pool = Array.init (n - 1) (fun i -> i + 1) in
  Rng.shuffle rng pool;
  Array.to_list (Array.sub pool 0 (min k (Array.length pool)))

let scenario ?(heal_at_settle = true) ?park_timeout ?(expect_reconverge = false)
    ?shed_limit ?backlog_budget name doc plan =
  {
    name;
    doc;
    plan;
    heal_at_settle;
    park_timeout;
    expect_reconverge;
    shed_limit;
    backlog_budget;
  }

let calm =
  scenario "calm" "no faults (baseline)" (fun ~rng:_ ~n:_ ~horizon:_ -> [])

(* Crash-stop: between 1 and n-2 victims, so at least two members
   (including the anchor) survive. *)
let crash_plan ~rng ~n ~horizon =
  if n < 3 then []
  else begin
    let k = 1 + Rng.int rng (n - 2) in
    by_time
      (List.map
         (fun v -> { at = Rng.uniform rng ~lo:(0.1 *. horizon) ~hi:(0.7 *. horizon); action = Crash v })
         (victims rng ~n ~k))
  end

let crash = scenario "crash" "crash-stop a random subset" crash_plan

let partition_heal_plan ~rng ~n ~horizon =
  if n < 2 then []
  else begin
    let windows = 1 + Rng.int rng 3 in
    let rec mk acc i =
      if i = 0 then acc
      else begin
        let a = Rng.int rng n in
        let b = (a + 1 + Rng.int rng (n - 1)) mod n in
        let start = Rng.uniform rng ~lo:(0.05 *. horizon) ~hi:(0.6 *. horizon) in
        let stop =
          Float.min (0.9 *. horizon)
            (start +. Rng.uniform rng ~lo:(0.05 *. horizon) ~hi:(0.3 *. horizon))
        in
        mk
          ({ at = start; action = Partition (a, b) }
          :: { at = stop; action = Heal (a, b) }
          :: acc)
          (i - 1)
      end
    in
    by_time (mk [] windows)
  end

let partition_heal =
  scenario "partition-heal" "link partitions, healed before the horizon" partition_heal_plan

let slow_receiver_plan ~rng ~n ~horizon =
  if n < 2 then []
  else begin
    let k = if n > 3 && Rng.bool rng then 2 else 1 in
    let mk v =
      let start = Rng.uniform rng ~lo:(0.05 *. horizon) ~hi:(0.3 *. horizon) in
      let stop =
        Float.min (0.9 *. horizon)
          (start +. Rng.uniform rng ~lo:(0.2 *. horizon) ~hi:(0.5 *. horizon))
      in
      [ { at = start; action = Pause v }; { at = stop; action = Resume v } ]
    in
    by_time (List.concat_map mk (victims rng ~n ~k))
  end

let slow_receiver =
  scenario "slow-receiver" "long receive pauses on one or two nodes" slow_receiver_plan

let churn_plan ~rng ~n ~horizon =
  if n < 3 then []
  else begin
    let k = 1 + Rng.int rng (n - 2) in
    by_time
      (List.map
         (fun v ->
           {
             at = Rng.uniform rng ~lo:(0.1 *. horizon) ~hi:(0.7 *. horizon);
             action = Leave { initiator = 0; node = v };
           })
         (victims rng ~n ~k))
  end

let churn = scenario "churn" "voluntary membership removals spread over the run" churn_plan

(* Crash a subset, then bring each victim back through the JOIN/SYNC
   path: the rejoin is scheduled well after the crash (so the group
   completes the exclusion first) and well before the horizon (so the
   handshake and the rejoined member's post-sync traffic are part of
   the checked run). *)
let crash_restart_plan ~rng ~n ~horizon =
  if n < 3 then []
  else begin
    let k = 1 + Rng.int rng (n - 2) in
    by_time
      (List.concat_map
         (fun v ->
           let crash_at = Rng.uniform rng ~lo:(0.1 *. horizon) ~hi:(0.45 *. horizon) in
           let rejoin_at =
             Float.min (0.75 *. horizon)
               (crash_at +. Rng.uniform rng ~lo:(0.15 *. horizon) ~hi:(0.3 *. horizon))
           in
           [
             { at = crash_at; action = Crash v };
             { at = rejoin_at; action = Rejoin v };
           ])
         (victims rng ~n ~k))
  end

let crash_restart =
  scenario "crash-restart" "crash a subset, restart each from its log and rejoin"
    crash_restart_plan

(* Voluntary exclusion followed by readmission of the same process —
   the pure membership round trip, with no crash involved. *)
let exclude_rejoin_plan ~rng ~n ~horizon =
  if n < 3 then []
  else begin
    let k = 1 + Rng.int rng (n - 2) in
    by_time
      (List.concat_map
         (fun v ->
           let leave_at = Rng.uniform rng ~lo:(0.1 *. horizon) ~hi:(0.4 *. horizon) in
           let rejoin_at =
             Float.min (0.75 *. horizon)
               (leave_at +. Rng.uniform rng ~lo:(0.15 *. horizon) ~hi:(0.3 *. horizon))
           in
           [
             { at = leave_at; action = Leave { initiator = 0; node = v } };
             { at = rejoin_at; action = Rejoin v };
           ])
         (victims rng ~n ~k))
  end

let exclude_rejoin =
  scenario "exclude-rejoin" "exclude a subset via view changes, then readmit each"
    exclude_rejoin_plan

(* A majority/minority split: the minority is a random strict minority
   of the group drawn from 1..n-1, so node 0 — the anchor producer —
   is always on the primary side and keeps the run observable. *)
let split_sets rng ~n =
  let cap = (n - 1) / 2 in
  let k = 1 + Rng.int rng cap in
  let minority = List.sort compare (victims rng ~n ~k) in
  let majority = List.filter (fun p -> not (List.mem p minority)) (List.init n Fun.id) in
  [ majority; minority ]

(* The split scenarios run with a park deadline of 1 s: a member still
   blocked in the same view change after 1 (virtual) second has lost
   the primary component and parks. Small against the 12 s default
   horizon, large against the ~2 ms simulated link latency. *)
let split_park_timeout = 1.0

(* One majority/minority split that is never healed: the majority must
   keep delivering, the minority must park — and stay parked, its JOIN
   probes held on the dead links. Opts out of the injector's settle
   heal so the partition outlives the run. *)
let group_split_plan ~rng ~n ~horizon =
  if n < 3 then []
  else
    [
      {
        at = Rng.uniform rng ~lo:(0.2 *. horizon) ~hi:(0.4 *. horizon);
        action = Split (split_sets rng ~n);
      };
    ]

let group_split =
  scenario ~heal_at_settle:false ~park_timeout:split_park_timeout "group-split"
    "majority/minority split, never healed: majority keeps going, minority parks"
    group_split_plan

(* Split, give the minority time to park and turn into probing
   joiners, then heal: the held JOIN probes deliver and the group must
   re-converge to a single view before the end of the run. *)
let split_heal_merge_plan ~rng ~n ~horizon =
  if n < 3 then []
  else
    [
      {
        at = Rng.uniform rng ~lo:(0.15 *. horizon) ~hi:(0.3 *. horizon);
        action = Split (split_sets rng ~n);
      };
      { at = Rng.uniform rng ~lo:(0.55 *. horizon) ~hi:(0.65 *. horizon); action = Heal_split };
    ]

let split_heal_merge =
  scenario ~park_timeout:split_park_timeout ~expect_reconverge:true "split-heal-merge"
    "split long enough to park the minority, heal, then demand re-convergence"
    split_heal_merge_plan

(* Repeated split/heal cycles with fresh random sets each time. Cycles
   are short enough that a heal sometimes lands before the park
   deadline, so both the parked-then-merged and the healed-in-place
   paths get exercised; after the last heal the group must still
   re-converge. *)
let flapping_split_plan ~rng ~n ~horizon =
  if n < 3 then []
  else begin
    let cycles = 2 + Rng.int rng 2 in
    let slot = 0.7 *. horizon /. float_of_int cycles in
    List.concat
      (List.init cycles (fun i ->
           let base = (0.05 *. horizon) +. (float_of_int i *. slot) in
           [
             {
               at = base +. Rng.uniform rng ~lo:0.0 ~hi:(0.3 *. slot);
               action = Split (split_sets rng ~n);
             };
             {
               at = base +. Rng.uniform rng ~lo:(0.6 *. slot) ~hi:(0.9 *. slot);
               action = Heal_split;
             };
           ]))
  end

let flapping_split =
  scenario ~park_timeout:split_park_timeout ~expect_reconverge:true "flapping-split"
    "repeated split/heal cycles with fresh random sets, converged at the end"
    flapping_split_plan

(* Overload: one victim stops reading early and stays wedged for most
   of the run while every member keeps publishing — the slow-consumer
   survival test. With shedding on ([shed_limit]), the victim's
   backlog must stay under [backlog_budget] (newer annotated messages
   purge the obsolete tail of the queue) while the healthy members
   keep delivering; with shedding off (self-test no-shed) the same plan must
   blow through the budget — the inverted self-check proving the
   budget verdict measures shedding, not a gentle workload. The pause
   window is only lightly jittered so the offered load, and hence the
   budget, is comparable across seeds. *)
let overload_plan ~rng ~n ~horizon =
  if n < 2 then []
  else begin
    let v = List.hd (victims rng ~n ~k:1) in
    let start = Rng.uniform rng ~lo:(0.08 *. horizon) ~hi:(0.12 *. horizon) in
    let stop = Float.min (0.85 *. horizon) (start +. (0.6 *. horizon)) in
    by_time [ { at = start; action = Pause v }; { at = stop; action = Resume v } ]
  end

let overload =
  scenario ~shed_limit:32 ~backlog_budget:250 "overload"
    "one member stops reading for most of the run under full load; shedding must keep \
     its backlog bounded"
    overload_plan

let spike_models =
  [|
    Latency.Uniform { lo = 0.02; hi = 0.08 };
    Latency.Constant 0.05;
    Latency.Shifted_exponential { base = 0.02; mean = 0.03 };
  |]

let latency_spikes_plan ~rng ~n:_ ~horizon =
  let windows = 1 + Rng.int rng 3 in
  let rec mk acc last i =
    if i = 0 then acc
    else begin
      let start = Rng.uniform rng ~lo:last ~hi:(Float.min (0.8 *. horizon) (last +. 0.3 *. horizon)) in
      let stop =
        Float.min (0.9 *. horizon)
          (start +. Rng.uniform rng ~lo:(0.05 *. horizon) ~hi:(0.2 *. horizon))
      in
      mk
        ({ at = start; action = Set_latency (Rng.pick rng spike_models) }
        :: { at = stop; action = Restore_latency }
        :: acc)
        stop (i - 1)
    end
  in
  by_time (mk [] (0.05 *. horizon) windows)

let latency_spikes =
  scenario "latency-spikes" "windows of much slower network, then restored" latency_spikes_plan

(* The same wedged consumer with everything else still going wrong
   around it: shedding has to stay safe (the oracle checks every run)
   while partitions and latency spikes reorder the pressure. No budget
   — the point is safety under composition, not the bound. *)
let overload_mayhem_plan ~rng ~n ~horizon =
  let sub plan = plan ~rng:(Rng.split rng) ~n ~horizon in
  by_time (List.concat [ sub overload_plan; sub partition_heal_plan; sub latency_spikes_plan ])

let overload_mayhem =
  scenario ~shed_limit:32 "overload-mayhem"
    "the wedged consumer composed with partitions and latency spikes, shedding on"
    overload_mayhem_plan

(* Everything at once, each sub-plan on its own split stream. Crashes
   and churn share one removal budget of n-2 victims so the anchor
   plus at least one peer always stay in the group; partitions and
   pauses may hit removed nodes — the injector tolerates that. *)
let mayhem_plan ~rng ~n ~horizon =
  let sub plan = plan ~rng:(Rng.split rng) ~n ~horizon in
  let removals =
    if n < 3 then []
    else begin
      let r = Rng.split rng in
      let k = 1 + Rng.int r (n - 2) in
      List.map
        (fun v ->
          let at = Rng.uniform r ~lo:(0.1 *. horizon) ~hi:(0.7 *. horizon) in
          if Rng.bool r then { at; action = Crash v }
          else { at; action = Leave { initiator = 0; node = v } })
        (victims r ~n ~k)
    end
  in
  by_time
    (List.concat
       [ removals; sub partition_heal_plan; sub slow_receiver_plan; sub latency_spikes_plan ])

let mayhem = scenario "mayhem" "crashes + partitions + pauses + churn + spikes" mayhem_plan

let all =
  [
    calm;
    crash;
    partition_heal;
    slow_receiver;
    churn;
    crash_restart;
    exclude_rejoin;
    group_split;
    split_heal_merge;
    flapping_split;
    latency_spikes;
    overload;
    overload_mayhem;
    mayhem;
  ]

let faulty = List.filter (fun s -> s != calm) all

let find name = List.find_opt (fun s -> s.name = name) all
