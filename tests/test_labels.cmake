# Labels of gtest cases, applied after gtest_discover_tests has
# defined them (see tests/CMakeLists.txt).
set_tests_properties(
    CriticalFrame.CleanDriveFrameIsTheLargestCostmapSample
    CriticalFrame.DegradedDriveFrameStartsAtADrainPhaseCoast
    PROPERTIES LABELS trace)
