"""Error taxonomy shared across the pipeline.

Every failure mode a harness might want to triage has its own class.
Parsers attach line numbers; evaluation errors attach identifiers. The CLI
maps ``ConfigError`` and its subclasses to exit code 2, ``IoFailure`` to 3
and every other ``GazeScreenError`` to 4.
"""


class GazeScreenError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(GazeScreenError):
    """A bad option, config value or spec: the run cannot start as asked."""


# --- ingest ---------------------------------------------------------------

class MalformedRow(GazeScreenError):
    def __init__(self, path, line_no, reason):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")


class NonMonotonicTimestamp(GazeScreenError):
    def __init__(self, path, line_no):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: wall timestamp not strictly increasing")


class EmptyLog(GazeScreenError):
    def __init__(self, path):
        self.path = path
        super().__init__(f"{path}: gaze log contains no samples")


class DegenerateBox(GazeScreenError):
    def __init__(self, path, line_no):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: box has non-positive width or height")


class FrameOutOfRange(GazeScreenError):
    def __init__(self, path, line_no, frame_index, n_frames):
        self.path = path
        self.line_no = line_no
        self.frame_index = frame_index
        super().__init__(
            f"{path}:{line_no}: frame {frame_index} outside [0, {n_frames})"
        )


class RateMismatch(GazeScreenError):
    def __init__(self, participant_id, video_id, fraction):
        self.participant_id = participant_id
        self.video_id = video_id
        self.fraction = fraction
        super().__init__(
            f"{participant_id}/{video_id}: only {fraction:.1%} of frames received "
            f"a valid sample (minimum 10%)"
        )


# --- features -------------------------------------------------------------

class InsufficientData(GazeScreenError):
    pass


class NoAoiInWindow(GazeScreenError):
    pass


class NoAoiTrack(NoAoiInWindow):
    """AOI features asked of a video that has no AOI track."""

    def __init__(self, video_id):
        self.video_id = video_id
        super().__init__(f"no AOI track for video {video_id!r}")


class MissingVideo(GazeScreenError):
    def __init__(self, participant_id, video_id):
        self.participant_id = participant_id
        self.video_id = video_id
        super().__init__(f"participant {participant_id} lacks video {video_id}")


# --- learn ----------------------------------------------------------------

class DimensionMismatch(GazeScreenError):
    pass


class SingleClass(GazeScreenError):
    pass


class NonFiniteFeature(GazeScreenError):
    pass


class DivergenceDetected(GazeScreenError):
    pass


# --- eval -----------------------------------------------------------------

class TooFewPerClass(ConfigError):
    pass


class TooFewParticipants(ConfigError):
    pass


class DurationTooLong(ConfigError):
    pass


class DurationTooShort(ConfigError):
    pass


class AoiNeverInAnyWindow(GazeScreenError):
    pass


# --- synth / io -----------------------------------------------------------

class IoFailure(GazeScreenError):
    pass
