(** Physical design-rule checks on a routed chip.

    Complements {!Mfb_schedule.Check} (which validates timing): DRC
    validates geometry — the flow-layer equivalent of an EDA sign-off
    check.  A design produced by {!Router.route} on a legal
    {!Mfb_place.Chip} placement must pass. *)

type violation = {
  rule : string;     (** stable identifier, e.g. ["placement"], ["path"] *)
  message : string;
}

val check :
  Mfb_place.Chip.t -> Routed.result -> violation list
(** [check chip routing] verifies:

    - ["placement"]: components in bounds and pairwise spaced;
    - ["path"]: every routed path is non-empty, 4-connected, stays inside
      the grid, and avoids component footprints;
    - ["port"]: every path starts at a port of its source component and
      ends at a port of its destination component;
    - ["connectivity"]: the channel network touches a port of every
      component that sends or receives fluid (checked with union-find
      over used cells);
    - ["occupation"]: every occupied cell of the final grid lies on some
      routed path. *)
